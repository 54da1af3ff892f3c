"""Alternating Turing machines: configurations, accepting-tree search and
tree validation.

States are partitioned into existential, universal, accepting and rejecting
states; a machine accepts when an accepting tree exists (existential nodes
keep one successor, universal nodes keep all of them, every leaf accepts).
The transition list order is semantic: it breaks ties for existential
choices and fixes the output order of successors.
"""

from .relations import Check, Report

BLANK = "#"
LEFT = "L"
RIGHT = "R"


class AtmError(ValueError):
    pass


class AtmSpec:
    """Machine description.

    symbols: tape alphabet (the blank "#" must be included);
    input_symbols: subset usable in inputs; delta: ordered list of
    ((state, symbol), (state, symbol, direction)) entries.
    """

    def __init__(self, symbols, input_symbols, states, exists, forall,
                 accept, reject, init, delta):
        self.symbols = list(symbols)
        self.input_symbols = list(input_symbols)
        self.states = list(states)
        self.exists = list(exists)
        self.forall = list(forall)
        self.accept = accept
        self.reject = reject
        self.init = init
        self.delta = [((q, a), (r, b, d)) for (q, a), (r, b, d) in delta]
        self._validate()
        self._delta_map = {}
        for (q, a), rhs in self.delta:
            self._delta_map.setdefault((q, a), []).append(rhs)

    def _validate(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise AtmError("duplicate tape symbols")
        if BLANK not in self.symbols:
            raise AtmError("tape alphabet must contain the blank '#'")
        for a in self.input_symbols:
            if a not in self.symbols or a == BLANK:
                raise AtmError(f"input symbol {a!r} must be a non-blank tape symbol")
        if len(set(self.states)) != len(self.states):
            raise AtmError("duplicate states")
        groups = [set(self.exists), set(self.forall), {self.accept}, {self.reject}]
        union = set()
        total = 0
        for g in groups:
            union |= g
            total += len(g)
        if total != len(union) or union != set(self.states):
            raise AtmError("existential/universal/accept/reject must partition the states")
        if self.init not in self.states:
            raise AtmError(f"unknown initial state {self.init!r}")
        seen = set()
        for (q, a), (r, b, d) in self.delta:
            if q not in self.states or r not in self.states:
                raise AtmError(f"transition uses unknown state: {q!r} or {r!r}")
            if a not in self.symbols or b not in self.symbols:
                raise AtmError(f"transition uses unknown symbol: {a!r} or {b!r}")
            if d not in (LEFT, RIGHT):
                raise AtmError(f"direction must be L or R, got {d!r}")
            if q in (self.accept, self.reject):
                raise AtmError(f"accepting/rejecting state {q!r} must have no transitions")
            seen.add((q, a))
        for q in list(self.exists) + list(self.forall):
            for a in self.symbols:
                if (q, a) not in seen:
                    raise AtmError(f"state {q!r} has no transition on symbol {a!r}")

    def delta_for(self, q, a):
        """Right-hand sides for (q, a), in declaration order."""
        return list(self._delta_map.get((q, a), []))


class Configuration:
    """Instantaneous description: state, head cell, and a default-blank tape
    mapping over the integers with finite support."""

    __slots__ = ("state", "head", "tape", "_key")

    def __init__(self, state, head, tape):
        self.state = state
        self.head = head
        self.tape = {z: s for z, s in tape.items() if s != BLANK}
        self._key = (state, head, frozenset(self.tape.items()))

    def read(self):
        return self.tape.get(self.head, BLANK)

    def symbol_at(self, z):
        return self.tape.get(z, BLANK)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Configuration) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        cells = " ".join(f"{z}:{s}" for z, s in sorted(self.tape.items()))
        return f"Configuration({self.state}, head={self.head}, {cells})"


def initial_config(atm, w):
    """Head on cell 0, input written on cells 1..len(w), all else blank."""
    tape = {}
    for i, a in enumerate(w, start=1):
        if a not in atm.input_symbols:
            raise AtmError(f"input symbol {a!r} is not in the input alphabet")
        tape[i] = a
    return Configuration(atm.init, 0, tape)


def apply_entry(config, entry):
    """Apply one transition right-hand side: write, then move."""
    r, b, d = entry
    tape = dict(config.tape)
    if b == BLANK:
        tape.pop(config.head, None)
    else:
        tape[config.head] = b
    head = config.head + (1 if d == RIGHT else -1)
    return Configuration(r, head, tape)


def successors(atm, config):
    """Successor configurations in transition order, one per distinct
    transition: two distinct transitions differ in the state, the head
    move or the written cell, so they never give the same successor."""
    return [apply_entry(config, entry) for entry
            in dict.fromkeys(atm.delta_for(config.state, config.read()))]


# ---------------------------------------------------------------------------
# Computation trees.

class ComputationTree:
    """Rooted tree of configurations.  Node ids are assigned in creation
    order, so a parent's id is smaller than its children's and `nodes`
    lists them ascending; the root is node 0.  Each node's depth is
    recorded when it is added."""

    def __init__(self):
        self.configs = {}
        self.parent = {}
        self.children = {}
        self._depth = {}
        self._next = 0

    def add_root(self, config):
        if self._next != 0:
            raise ValueError("root already present")
        self.configs[0] = config
        self.parent[0] = None
        self.children[0] = []
        self._depth[0] = 0
        self._next = 1
        return 0

    def add_child(self, parent, config):
        if parent not in self.configs:
            raise KeyError(f"unknown node {parent}")
        v = self._next
        self._next += 1
        self.configs[v] = config
        self.parent[v] = parent
        self.children[v] = []
        self.children[parent].append(v)
        self._depth[v] = self._depth[parent] + 1
        return v

    @property
    def root(self):
        return 0

    def nodes(self):
        return list(self.configs)

    def leaves(self):
        return [v for v in self.nodes() if not self.children[v]]

    def depth(self, v):
        if v not in self.configs:
            raise KeyError(f"unknown node {v}")
        return self._depth[v]

    def height(self):
        return max(self._depth[v] for v in self.configs)

    def canonical_labels(self, ids):
        """Order-insensitive label of every node, for tree label
        comparison: a number from the shared table ids, equal for two
        nodes exactly when their subtrees carry the same configurations
        in the same shape (children compared as multisets).  A child's id
        is larger than its parent's, so one backward pass over the nodes
        labels every child before its parent."""
        labels = {}
        for v in reversed(self.nodes()):
            kids = tuple(sorted(labels[c] for c in self.children[v]))
            labels[v] = ids.setdefault((self.configs[v].key(), kids), len(ids))
        return labels


def trees_label_equal(t1, t2):
    """True when the two trees carry the same configurations in the same
    shape (children compared as sets; sibling labels are distinct)."""
    ids = {}
    return (t1.canonical_labels(ids)[t1.root]
            == t2.canonical_labels(ids)[t2.root])


# ---------------------------------------------------------------------------
# Accepting-tree search.

def _accepts(atm, config, fuel, memo):
    """Whether config leads to acceptance within fuel steps.  memo maps
    (configuration key, fuel) to the answer.  An existential configuration
    stops at its first accepting successor, a universal one at its first
    non-accepting one.  Each pending configuration is a generator on an
    explicit stack, so a run of any length needs no Python recursion."""
    def visit(config, fuel):
        state = config.state
        if state == atm.accept:
            return True
        if state == atm.reject or fuel == 0:
            return False
        decisive = state in atm.exists
        for s in successors(atm, config):
            if (yield s, fuel - 1) == decisive:
                return decisive
        return not decisive

    key = (config.key(), fuel)
    if key in memo:
        return memo[key]
    stack = [(key, visit(config, fuel))]
    answer = None
    while stack:
        key, frame = stack[-1]
        try:
            child, child_fuel = frame.send(answer)
        except StopIteration as done:
            memo[key] = answer = done.value
            stack.pop()
            continue
        child_key = (child.key(), child_fuel)
        answer = memo.get(child_key)
        if answer is None:
            stack.append((child_key, visit(child, child_fuel)))
    return answer


def find_accepting_tree(atm, w, time_bound):
    """An accepting tree of height at most time_bound, or None.

    Existential nodes keep the first accepting successor in transition
    order; universal nodes keep all (distinct) successors.
    """
    if time_bound < 0:
        raise ValueError("time bound must be a natural number")
    memo = {}
    start = initial_config(atm, w)
    if not _accepts(atm, start, time_bound, memo):
        return None
    tree = ComputationTree()
    tree.add_root(start)
    pending = [(0, start, time_bound)]
    while pending:
        v, config, fuel = pending.pop()
        state = config.state
        if state == atm.accept:
            continue
        succs = successors(atm, config)
        if state in atm.exists:
            succs = [next(s for s in succs if _accepts(atm, s, fuel - 1, memo))]
        for s in succs:
            pending.append((tree.add_child(v, s), s, fuel - 1))
    return tree


# ---------------------------------------------------------------------------
# Tree validation.

def validate_tree(atm, w, tree):
    """Check the defining conditions of an accepting tree of the machine
    on input w in one pass over the nodes, stepping each inner node once.
    Each check names its first counterexample in node order; a bad edge
    is named by its least child id."""
    root_ok = tree.configs[tree.root] == initial_config(atm, w)
    bad_edge = dup = missing = bad_leaf = None
    for v in tree.nodes():
        config = tree.configs[v]
        if not tree.children[v]:
            if bad_leaf is None and config.state != atm.accept:
                bad_leaf = (v, config.state)
            continue
        succs = successors(atm, config)
        have = set()
        for c in tree.children[v]:
            child = tree.configs[c]
            if child not in succs and (bad_edge is None or c < bad_edge[1]):
                bad_edge = (v, c)
            if dup is None and child in have:
                dup = (v, c)
            have.add(child)
        if missing is None and config.state in atm.forall:
            missing = next(((v, s.state) for s in succs if s not in have), None)
    return Report([Check("root-is-initial", None if root_ok else tree.root),
                   Check("edges-are-steps", bad_edge),
                   Check("siblings-distinct", dup),
                   Check("universal-nodes-complete", missing),
                   Check("leaves-accept", bad_leaf)])


# ---------------------------------------------------------------------------
# Machine spec file: line-based, transition order significant.

def parse_atm(text):
    fields = {"symbols": None, "input": None, "states": None, "exists": [],
              "forall": [], "accept": None, "reject": None, "init": None}
    delta = []
    given = set()
    # '#' is the blank tape symbol, so machine files have no comment syntax.
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise AtmError(f"bad machine line {lineno}: {raw!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "delta":
            lhs, arrow, rhs = rest.partition("->")
            lp, rp = lhs.split(), rhs.split()
            if not arrow or len(lp) != 2 or len(rp) != 3:
                raise AtmError(f"bad transition on line {lineno}: {raw!r}")
            delta.append(((lp[0], lp[1]), (rp[0], rp[1], rp[2])))
        elif key not in fields:
            raise AtmError(f"unknown field {key!r} on line {lineno}")
        elif key in given:
            raise AtmError(f"repeated field {key!r} on line {lineno}")
        else:
            given.add(key)
            fields[key] = (rest if key in ("accept", "reject", "init")
                           else rest.split())
    for req in ("symbols", "input", "states", "accept", "reject", "init"):
        if fields[req] is None:
            raise AtmError(f"machine file is missing the {req!r} field")
    return AtmSpec(symbols=fields["symbols"], input_symbols=fields["input"],
                   states=fields["states"], exists=fields["exists"],
                   forall=fields["forall"], accept=fields["accept"],
                   reject=fields["reject"], init=fields["init"], delta=delta)


def render_atm(atm):
    lines = [
        "symbols: " + " ".join(atm.symbols),
        "input: " + " ".join(atm.input_symbols),
        "states: " + " ".join(atm.states),
        "exists: " + " ".join(atm.exists),
        "forall: " + " ".join(atm.forall),
        "accept: " + atm.accept,
        "reject: " + atm.reject,
        "init: " + atm.init,
    ]
    for (q, a), (r, b, d) in atm.delta:
        lines.append(f"delta: {q} {a} -> {r} {b} {d}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Tree dump (used by the command-line tools).

def save_tree(tree):
    lines = []
    for v in tree.nodes():
        c = tree.configs[v]
        p = tree.parent[v]
        cells = " ".join(f"{z}={s}" for z, s in sorted(c.tape.items()))
        head = f"node {v} {p if p is not None else '-'} {c.state} {c.head}"
        lines.append((head + " " + cells).rstrip())
    return "\n".join(lines) + "\n"


def load_tree(text):
    tree = ComputationTree()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] != "node" or len(parts) < 5:
                raise ValueError
            v, head = int(parts[1]), int(parts[4])
            parent = None if parts[2] == "-" else int(parts[2])
            if parent is not None and parent not in tree.configs:
                raise ValueError
            tape = {int(z): s for z, s in (cell.split("=", 1) for cell in parts[5:])}
        except ValueError:
            raise ValueError(f"bad tree line {lineno}: {raw!r}") from None
        config = Configuration(parts[3], head, tape)
        got = (tree.add_root(config) if parent is None
               else tree.add_child(parent, config))
        if got != v:
            raise ValueError(f"tree nodes must be listed in id order (line {lineno})")
    return tree
