"""The one-pass tree check and the K-row edge check against references.

`validate_tree` steps each inner node once and checks its children in
the same pass; the reference below runs one loop per check and steps a
parent again for every child, as the check was first written.
`check_morphism` reads a node's cloud as the K-row of its point; the
reference partitions the model into clouds and steps between them with
`cloud_steps`, kept here as the package first had it.  On mutated trees and moved morphisms both must give the
same report lines.
"""

import functools
import itertools
import random

import pytest

from bimodal import atm as am
from bimodal import red_s4s5, red_ssl
from bimodal.relations import Check, Report, bits, lowest
from bimodal.semantics import clouds
from bimodal.reduction import ReductionParams, check_morphism, grow_tree
from tests.test_extraction_variants import LOGICS as VARIANT_LOGICS, with_copies
from tests.test_mutant_sweep import MACHINES

REDUCTIONS = {"ssl": red_ssl.SSL, "s4s5": red_s4s5.S4S5}


def reference_successors(atm, config):
    """Successors in transition order, deduplicated by configuration."""
    out = []
    for entry in atm.delta_for(config.state, config.read()):
        nxt = am.apply_entry(config, entry)
        if nxt not in out:
            out.append(nxt)
    return out


def reference_validate_tree(atm, w, tree):
    nodes = sorted(tree.configs)
    root_ok = tree.configs[tree.root] == am.initial_config(atm, w)
    checks = [Check("root-is-initial", None if root_ok else tree.root)]

    bad_edge = None
    for v in nodes:
        p = tree.parent[v]
        if p is None:
            continue
        if tree.configs[v] not in reference_successors(atm, tree.configs[p]):
            bad_edge = (p, v)
            break
    checks.append(Check("edges-are-steps", bad_edge))

    dup = None
    for v in nodes:
        seen = set()
        for c in tree.children[v]:
            key = tree.configs[c].key()
            if key in seen:
                dup = (v, c)
                break
            seen.add(key)
        if dup:
            break
    checks.append(Check("siblings-distinct", dup))

    missing = None
    for v in nodes:
        if not tree.children[v]:
            continue
        config = tree.configs[v]
        if config.state in atm.forall:
            have = {tree.configs[c].key() for c in tree.children[v]}
            for s in reference_successors(atm, config):
                if s.key() not in have:
                    missing = (v, s.state)
                    break
        if missing:
            break
    checks.append(Check("universal-nodes-complete", missing))

    bad_leaf = next(((v, tree.configs[v].state) for v in nodes
                     if not tree.children[v]
                     and tree.configs[v].state != atm.accept), None)
    checks.append(Check("leaves-accept", bad_leaf))
    return Report(checks)


def cloud_steps(succ_d, blocks):
    """For each cloud mask in blocks, the ascending indices of the clouds
    some member reaches in one []-step."""
    owner = {}
    for c, block in enumerate(blocks):
        for i in bits(block):
            owner[i] = c
    out = []
    for block in blocks:
        reach = 0
        for i in bits(block):
            reach |= succ_d[i]
        found = []
        while reach:
            c = owner[lowest(reach)]
            found.append(c)
            reach &= ~blocks[c]
        out.append(sorted(found))
    return out


def reference_edges_preserved(model, tree, pi):
    """The edges-preserved line through the cloud partition."""
    blocks = [sum(1 << model.index[w] for w in cloud) for cloud in clouds(model)]
    owner = {i: c for c, block in enumerate(blocks) for i in bits(block)}
    steps = cloud_steps(model._succ_d, blocks)

    def cloud(nid):
        return owner[model.index[pi[nid]]]

    bad = next(((tree.parent[c], c) for c in sorted(tree.configs)[1:]
                if cloud(c) not in steps[cloud(tree.parent[c])]), None)
    return Report([Check("edges-preserved", bad)]).lines()[0]


@functools.lru_cache(maxsize=None)
def accepting_tree(machine):
    path, w, poly = MACHINES[machine]
    params = ReductionParams(am.parse_atm(path.read_text()), poly, w)
    return params, am.find_accepting_tree(params.atm, w, 2 ** params.N - 1)


def copy(tree):
    return am.load_tree(am.save_tree(tree))


def relabelled(tree, v, **change):
    out = copy(tree)
    old = out.configs[v]
    fields = {"state": old.state, "head": old.head, "tape": old.tape, **change}
    out.configs[v] = am.Configuration(**fields)
    return out


def dropped(tree, leaf):
    out = copy(tree)
    out.children[out.parent[leaf]].remove(leaf)
    for table in (out.configs, out.parent, out.children):
        del table[leaf]
    return out


def duplicated(tree, c):
    out = copy(tree)
    out.add_child(out.parent[c], out.configs[c])
    return out


def tree_mutants(atm, tree):
    """Every state relabelled, every head shifted by one either way, every
    cell from one left of the head to one right of it rewritten to every
    other symbol, every leaf dropped, every non-root node duplicated, and
    every two heads shifted right, which makes bad edges under parents
    whose children come in other than node order."""
    for v in tree.nodes():
        config = tree.configs[v]
        for q in atm.states:
            if q != config.state:
                yield relabelled(tree, v, state=q)
        for shift in (-1, 1):
            yield relabelled(tree, v, head=config.head + shift)
        for z in range(config.head - 1, config.head + 2):
            for a in atm.symbols:
                if a != config.symbol_at(z):
                    yield relabelled(tree, v, tape={**config.tape, z: a})
        if not tree.children[v]:
            yield dropped(tree, v)
        if v != tree.root:
            yield duplicated(tree, v)
    for u, v in itertools.combinations(tree.nodes(), 2):
        once = relabelled(tree, u, head=tree.configs[u].head + 1)
        yield relabelled(once, v, head=tree.configs[v].head + 1)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_validate_tree_matches_the_four_loop_reference(machine):
    params, tree = accepting_tree(machine)
    atm, w = params.atm, params.w
    failed = set()
    for mutant in tree_mutants(atm, tree):
        report = am.validate_tree(atm, w, mutant)
        assert report.lines() == reference_validate_tree(atm, w, mutant).lines()
        failed |= {c.name for c in report.failures()}
    # some mutant falsifies each check (bounce has no universal state)
    assert failed == {c.name for c in reference_validate_tree(atm, w, tree).checks
                      if atm.forall or c.name != "universal-nodes-complete"}


@pytest.mark.parametrize("logic", sorted(REDUCTIONS))
@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("copies", [False, True], ids=["witness", "copies"])
def test_edges_preserved_matches_the_cloud_partition(machine, logic, copies):
    red = REDUCTIONS[logic]
    params, tree = accepting_tree(machine)
    model, point = red.build_model(params, tree)
    rng = random.Random(f"{machine}/{logic}")
    if copies:
        model, point = with_copies(model, point, rng, VARIANT_LOGICS[logic][3])
    got, pi = grow_tree(red, model, point, params)
    # each non-root node moved to every other node's point and to a few
    # seeded worlds
    targets = sorted(set(pi.values()))
    targets += rng.sample(model.worlds, 5)
    lines = set()
    for nid in got.nodes()[1:]:
        for world in targets:
            moved = {**pi, nid: world}
            line = check_morphism(red, model, point, params, got, moved).lines()[1]
            assert line == reference_edges_preserved(model, got, moved)
            lines.add(line.split()[1])
    assert lines == {"pass", "fail"}
