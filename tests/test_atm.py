"""Alternating machines: configurations, accepting-tree search, tree
validation, and the machine/tree text formats."""

import pathlib

import pytest

from bimodal import atm as am
from bimodal.atm import (BLANK, LEFT, RIGHT, Configuration, initial_config,
                         apply_entry, successors, find_accepting_tree,
                         validate_tree, trees_label_equal,
                         parse_atm, render_atm, save_tree,
                         load_tree, AtmError)
from bimodal.reduction import ReductionParams, node_table, window_pos

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "machines"


def test_parse_render_round_trip(m1, m1_path):
    text = open(m1_path).read()
    assert render_atm(m1) == text
    assert render_atm(parse_atm(render_atm(m1))) == render_atm(m1)


def test_spec_fields(m1):
    assert m1.init == "q0"
    assert m1.accept == "qacc" and m1.reject == "qrej"
    assert "q0" in m1.exists and "q1" in m1.forall
    assert BLANK in m1.symbols and BLANK not in m1.input_symbols


def test_delta_for_keeps_declaration_order(m1):
    entries = m1.delta_for("q1", "a")
    assert [(e[0], e[1], e[2]) for e in entries] == [
        ("qacc", "a", RIGHT), ("qacc", "b", LEFT)]
    assert m1.delta_for("qacc", "a") == []


def test_initial_config(m1):
    c = initial_config(m1, "ab")
    assert c.head == 0
    assert c.read() == BLANK
    assert c.symbol_at(1) == "a" and c.symbol_at(2) == "b"
    assert c.symbol_at(3) == BLANK and c.symbol_at(-1) == BLANK


def test_apply_entry_writes_then_moves(m1):
    c = initial_config(m1, "a")
    d = apply_entry(c, ("q1", BLANK, RIGHT))
    assert d.state == "q1" and d.head == 1 and d.read() == "a"
    e = apply_entry(d, ("qacc", "b", LEFT))
    assert e.head == 0 and e.symbol_at(1) == "b"


def test_configuration_equality_and_blank_stripping(m1):
    a = Configuration("q0", 0, {1: "a", 5: BLANK})
    b = Configuration("q0", 0, {1: "a"})
    assert a == b and hash(a) == hash(b)


def test_successors_are_deduped(m1):
    c = initial_config(m1, "a")
    succ = successors(m1, c)
    assert len(succ) == 1 and succ[0].state == "q1"


def test_find_accepting_tree_and_accepts(m1):
    tree = find_accepting_tree(m1, "a", 7)
    assert tree is not None
    report = validate_tree(m1, "a", tree)
    assert report.ok
    # the universal q1/a node must carry both transition branches
    assert len(tree.configs) == 4
    assert tree.height() == 2


def test_rejecting_input():
    machine = parse_atm(
        "symbols: # a\ninput: a\nstates: q0 qacc qrej\n"
        "exists: q0\nforall:\naccept: qacc\nreject: qrej\ninit: q0\n"
        "delta: q0 # -> qrej # R\ndelta: q0 a -> qrej a R\n")
    assert find_accepting_tree(machine, "", 5) is None


def test_time_bound_is_respected(m1):
    assert find_accepting_tree(m1, "a", 1) is None


def test_node_data(m1):
    params = ReductionParams(m1, [2, 1], "a")
    tree = find_accepting_tree(m1, "a", 7)
    child = tree.children[tree.root][0]
    data = node_table(params, tree)[child]
    assert data["time"] == 1
    assert data["pred"] == tree.root
    # the root wrote nothing; its child records the symbol left behind
    assert data["written"] == BLANK


@pytest.mark.parametrize("machine, w", [("fan", "bbbb"), ("bounce", "babab")])
def test_node_table_matches_ancestor_walk(machine, w):
    spec = parse_atm((MACHINES / f"{machine}.atm").read_text())
    params = ReductionParams(spec, [0, 1], w)
    tree = find_accepting_tree(spec, w, 2 ** params.N - 1)
    table = node_table(params, tree)
    assert sorted(table) == tree.nodes()
    for v in tree.nodes():
        path = [v]  # v and its ancestors, v first
        while tree.parent[path[-1]] is not None:
            path.append(tree.parent[path[-1]])
        pos = window_pos(params.N, tree.configs[v].head)
        pred = tree.parent[v]
        written = (BLANK if pred is None
                   else tree.configs[v].symbol_at(tree.configs[pred].head))
        visit = next((u for u in path[1:]
                      if window_pos(params.N, tree.configs[u].head) == pos), None)
        tapv = 0 if visit is None else len(path) - path.index(visit)
        assert (table[v]["time"], table[v]["pos"], table[v]["written"],
                table[v]["pred"], table[v]["tapv"]) == (
                    len(path) - 1, pos, written, pred, tapv)
    assert tree.height() == max(d["time"] for d in table.values())
    # fan only moves right; bounce comes back to cells it visited
    assert any(d["tapv"] > 0 for d in table.values()) == (machine == "bounce")


def test_validate_tree_catches_leaf_relabel(m1):
    tree = find_accepting_tree(m1, "a", 7)
    leaf = tree.leaves()[0]
    old = tree.configs[leaf]
    tree.configs[leaf] = Configuration("q1", old.head, old.tape)
    report = validate_tree(m1, "a", tree)
    failed = {c.name for c in report.checks if not c.passed}
    # the relabeled leaf no longer accepts, and its parent edge is no
    # longer a legal step
    assert "leaves-accept" in failed
    assert report.lines() == [
        "root-is-initial: pass", "edges-are-steps: fail (1, 2)",
        "siblings-distinct: pass",
        "universal-nodes-complete: fail (1, 'qacc')",
        "leaves-accept: fail (2, 'q1')", "result: fail"]


def test_validate_tree_catches_bogus_edge(m1):
    tree = find_accepting_tree(m1, "a", 7)
    leaf = tree.leaves()[0]
    old = tree.configs[leaf]
    tree.configs[leaf] = Configuration(old.state, old.head + 3, old.tape)
    report = validate_tree(m1, "a", tree)
    failed = {c.name for c in report.checks if not c.passed}
    assert "edges-are-steps" in failed
    assert report.lines() == [
        "root-is-initial: pass", "edges-are-steps: fail (1, 2)",
        "siblings-distinct: pass",
        "universal-nodes-complete: fail (1, 'qacc')",
        "leaves-accept: pass", "result: fail"]


def test_validate_tree_catches_missing_universal_branch(m1):
    tree = find_accepting_tree(m1, "a", 7)
    # drop one branch of the universal node
    universal = [v for v in tree.nodes() if tree.configs[v].state == "q1"][0]
    dropped = tree.children[universal].pop()
    tree.configs.pop(dropped)
    tree.parent.pop(dropped)
    report = validate_tree(m1, "a", tree)
    failed = {c.name for c in report.checks if not c.passed}
    assert "universal-nodes-complete" in failed
    assert report.lines() == [
        "root-is-initial: pass", "edges-are-steps: pass",
        "siblings-distinct: pass",
        "universal-nodes-complete: fail (1, 'qacc')",
        "leaves-accept: pass", "result: fail"]


def test_height_and_depth_skip_dropped_nodes(m1):
    tree = find_accepting_tree(m1, "a", 7)
    assert tree.height() == 2
    # drop both leaves under the universal node, as the test above drops one
    universal = [v for v in tree.nodes() if tree.configs[v].state == "q1"][0]
    for leaf in tree.children[universal]:
        tree.configs.pop(leaf)
        tree.parent.pop(leaf)
        with pytest.raises(KeyError):
            tree.depth(leaf)
    assert tree.height() == 1 == tree.depth(universal)


def test_validate_tree_rejects_nonaccepting_leaves(m1):
    tree = am.ComputationTree()
    tree.add_root(initial_config(m1, "a"))
    assert not validate_tree(m1, "a", tree).ok


def test_trees_label_equal(m1):
    t1 = find_accepting_tree(m1, "a", 7)
    t2 = find_accepting_tree(m1, "a", 7)
    assert trees_label_equal(t1, t2)
    t3 = find_accepting_tree(m1, "ab", 7)
    assert not trees_label_equal(t1, t3)


def test_trees_label_equal_on_a_long_path():
    def path_tree(length, last_state):
        tree = am.ComputationTree()
        v = tree.add_root(am.Configuration("q0", 0, {}))
        for i in range(1, length):
            state = last_state if i == length - 1 else "q0"
            v = tree.add_child(v, am.Configuration(state, i, {}))
        return tree

    tree = path_tree(5000, "qacc")
    assert am.trees_label_equal(tree, path_tree(5000, "qacc"))
    assert not am.trees_label_equal(tree, path_tree(5000, "qrej"))
    assert not am.trees_label_equal(tree, path_tree(4999, "qacc"))


def test_save_load_tree_round_trip(m1):
    tree = find_accepting_tree(m1, "ab", 7)
    text = save_tree(tree)
    back = load_tree(text)
    assert trees_label_equal(tree, back)
    assert save_tree(back) == text


M1_TEXT = (pathlib.Path(__file__).resolve().parent.parent / "fixtures"
           / "m1.atm").read_text()


def m1_edited(old, new):
    """m1's machine text with the line old replaced by new (old None:
    new appended; new None: old dropped)."""
    lines = M1_TEXT.splitlines()
    if old is None:
        lines.append(new)
    else:
        lines[lines.index(old):lines.index(old) + 1] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("old, new, message", [
    (None, "oops", "bad machine line 16: 'oops'"),
    ("delta: q0 a -> qacc a R", "delta: q0 a qacc a R",
     "bad transition on line 10: 'delta: q0 a qacc a R'"),
    ("delta: q0 a -> qacc a R", "delta: q0 a -> qacc a",
     "bad transition on line 10: 'delta: q0 a -> qacc a'"),
    (None, "halt: qacc", "unknown field 'halt' on line 16"),
    (None, "init: q1", "repeated field 'init' on line 16"),
    ("forall: q1", "forall: q1\nforall: q1", "repeated field 'forall' on line 6"),
    ("init: q0", None, "machine file is missing the 'init' field"),
    ("symbols: # a b", "symbols: # a b a", "duplicate tape symbols"),
    ("symbols: # a b", "symbols: a b", "tape alphabet must contain the blank '#'"),
    ("input: a b", "input: a #", "input symbol '#' must be a non-blank tape symbol"),
    ("states: q0 q1 qacc qrej", "states: q0 q1 qacc qrej q0", "duplicate states"),
    ("forall: q1", "forall: q1 q0",
     "existential/universal/accept/reject must partition the states"),
    ("init: q0", "init: q9", "unknown initial state 'q9'"),
    ("delta: q0 a -> qacc a R", "delta: q0 a -> q9 a R",
     "transition uses unknown state: 'q0' or 'q9'"),
    ("delta: q0 a -> qacc a R", "delta: q0 z -> qacc a R",
     "transition uses unknown symbol: 'z' or 'a'"),
    ("delta: q0 a -> qacc a R", "delta: q0 a -> qacc a S",
     "direction must be L or R, got 'S'"),
    (None, "delta: qacc a -> qacc a R",
     "accepting/rejecting state 'qacc' must have no transitions"),
    ("delta: q0 b -> qrej b R", None, "state 'q0' has no transition on symbol 'b'"),
], ids=["bad-line", "no-arrow", "short-transition", "unknown-field",
        "repeated-field", "repeated-list-field", "missing-field",
        "duplicate-symbols", "no-blank", "blank-input", "duplicate-states",
        "no-partition", "unknown-init", "unknown-state", "unknown-symbol",
        "bad-direction", "halting-transition", "missing-transition"])
def test_malformed_machine_files_are_named(old, new, message):
    with pytest.raises(AtmError) as err:
        parse_atm(m1_edited(old, new))
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("node 0 - q0 0\nleaf 1 0 q1 1\n", "bad tree line 2: 'leaf 1 0 q1 1'"),
    ("node 0 - q0 0\nnode 0 - q0 0\n", "root already present"),
    ("node 0 - q0 0\nnode 5 0 q1 1\n",
     "tree nodes must be listed in id order (line 2)"),
], ids=["bad-line", "two-roots", "id-order"])
def test_malformed_tree_files_are_named(text, message):
    with pytest.raises(ValueError) as err:
        load_tree(text)
    assert str(err.value) == message


def test_parse_atm_rejects_bad_spec():
    with pytest.raises(AtmError):
        parse_atm("symbols: # a\n")
    with pytest.raises(AtmError):
        parse_atm(
            "symbols: # a\ninput: a\nstates: q0 qacc qrej\n"
            "exists: q0\nforall:\naccept: qacc\nreject: qrej\ninit: q0\n"
            "delta: q0 z -> qacc a R\n")
