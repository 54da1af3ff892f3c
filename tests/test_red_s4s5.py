"""Product-logic reduction: counter formulas on product frames, machine-run
formulas with the active-branch bookkeeping, and tree extraction."""

import random

import pytest

from bimodal import formula as fm
from bimodal import atm as am
from bimodal import red_s4s5
from bimodal.formula import (And, K, Box, L, Diamond, Implies, conj,
                             eq_vector, eq_binary, rightmost_zero,
                             rightmost_one)
from bimodal.semantics import validate, clouds, S4S5_PRODUCT, BimodalModel
from bimodal.red_ssl import ReductionParams, ExtractionError
from bimodal.red_s4s5 import (S4S5, gen_counter_s4s5,
                              build_counter_s4s5_model,
                              extract_counter_trace_s4s5, f_s4s5_catalog,
                              gen_f_s4s5, build_f_s4s5_model,
                              extract_accepting_tree_s4s5)
from bimodal.reduction import check_morphism, counter_catalog
from tests.conftest import M1_PATH, mutants, pinned


def decode_counter(model, point, cat, n):
    return sum(1 << k for k in range(n)
               if model.eval(point, fm.shared_var_s4s5(k, cat)))


@pytest.fixture(scope="module")
def m1_module():
    return am.parse_atm(M1_PATH.read_text())


@pytest.fixture(scope="module")
def params_ab(m1_module):
    return ReductionParams(m1_module, [2, 1], "ab")


@pytest.fixture(scope="module")
def s4s5_setup(params_ab):
    f, cat = gen_f_s4s5(params_ab)
    tree = am.find_accepting_tree(params_ab.atm, "ab", 2 ** params_ab.N - 1)
    model, p0 = build_f_s4s5_model(params_ab, tree)
    return params_ab, f, cat, tree, model, p0


# --- counter -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_product_model(n):
    f, cat = gen_counter_s4s5(n)
    model, p0 = build_counter_s4s5_model(n)
    assert "product-provenance: pass" in validate(model, S4S5_PRODUCT).lines()
    assert len(model.worlds) == 4 ** n
    assert validate(model, S4S5_PRODUCT).ok
    assert model.eval(p0, f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_trace_decodes_to_all_values(n):
    _, cat = gen_counter_s4s5(n)
    model, p0 = build_counter_s4s5_model(n)
    p_points, p_prime = extract_counter_trace_s4s5(model, p0, n)
    assert len(p_points) == 2 ** n
    values = [decode_counter(model, p, cat, n) for p in p_points]
    assert values == list(range(2 ** n))


def test_counter_catalog_layout():
    cat = counter_catalog(S4S5, 2)
    assert cat.atom("A", 0) == 0 and cat.atom("A", 1) == 1
    assert cat.atom("X", 0) == 2 and cat.atom("X", 1) == 3


def test_counter_generation_is_deterministic():
    f1, _ = gen_counter_s4s5(3)
    f2, _ = gen_counter_s4s5(3)
    assert fm.render(f1) == fm.render(f2)


# --- machine-run formula -----------------------------------------------------

def test_f_s4s5_catalog_families(params_ab):
    cat = f_s4s5_catalog(params_ab)
    N = params_ab.N
    for family, length in (("A_time", N), ("X_prevtime", N), ("X_tapv", N),
                           ("A_pos", N + 1), ("X_pos", N + 1),
                           ("A_prevpos", N + 1), ("X_prevpos", N + 1)):
        assert len(cat.vector(family, length)) == length
    for q in params_ab.atm.states:
        cat.atom("A_state", q)
    for s in params_ab.atm.symbols:
        cat.atom("A_read", s)
        cat.atom("A_written", s)
        cat.atom("X_read", s)
    cat.atom("B_active")


def test_f_s4s5_is_deterministic(params_ab):
    f1, _ = gen_f_s4s5(params_ab)
    f2, _ = gen_f_s4s5(params_ab)
    assert fm.render(f1) == fm.render(f2)


def test_f_s4s5_witness_model(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    assert "product-provenance: pass" in validate(model, S4S5_PRODUCT).lines()
    assert validate(model, S4S5_PRODUCT).ok
    assert model.eval(p0, f)


def test_f_s4s5_extraction_round_trip(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    extracted, pi = extract_accepting_tree_s4s5(model, p0, params)
    assert am.validate_tree(params.atm, params.w, extracted).ok
    assert am.trees_label_equal(extracted, tree)
    assert check_morphism(S4S5, model, p0, params, extracted, pi).ok


def test_f_s4s5_extraction_flags_wrong_start(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    atom = cat.atom("A_state", params.atm.init)
    valuation = {a: set(s) for a, s in model.valuation.items()}
    valuation[atom] = {w for w in valuation[atom]
                       if not w.startswith(p0.split("|")[0] + "|")}
    broken = BimodalModel(model.worlds, model.rel_d, model.rel_l, valuation,
                          frame_class=model.frame_class, designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_accepting_tree_s4s5(broken, p0, params)
    assert err.value.kind == "witness-not-found"


def test_f_s4s5_extraction_flags_missing_edge(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    # drop every L-edge out of the designated point except the loop
    rel_l = [(a, b) for a, b in model.rel_l
             if not (a == p0 and b != p0) and not (b == p0 and a != p0)]
    broken = BimodalModel(model.worlds, model.rel_d, rel_l, model.valuation,
                          frame_class=model.frame_class, designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_accepting_tree_s4s5(broken, p0, params)
    assert err.value.kind == "witness-not-found"
    assert err.value.detail == "computation: no applicable step at node 0"


def test_f_s4s5_extraction_names_a_broken_l_relation(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    # without one L pair the relation is no longer symmetric; extraction
    # stops before growing the tree and names the pair left behind
    a, b = min((x, y) for x, y in model.rel_l if x != y)
    broken = BimodalModel(model.worlds, model.rel_d, model.rel_l - {(a, b)},
                          model.valuation, frame_class=model.frame_class,
                          designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_accepting_tree_s4s5(broken, p0, params)
    assert err.value.kind == "invalid-frame"
    assert err.value.detail == f"l-symmetric fails at {b} {a}"


def test_f_s4s5_morphism_report_lines(s4s5_setup):
    params, f, cat, tree, model, p0 = s4s5_setup
    extracted, pi = extract_accepting_tree_s4s5(model, p0, params)
    assert check_morphism(S4S5, model, p0, params, extracted, pi).lines() == [
        "root-anchored: pass", "edges-preserved: pass",
        "prevpos-and-written: pass", "configurations: pass", "result: pass"]
    # node 3 is a leaf under node 1; the root's cloud is not below node 1's
    assert extracted.parent[3] == 1
    moved = dict(pi)
    moved[3] = p0
    assert check_morphism(S4S5, model, p0, params, extracted, moved).lines() == [
        "root-anchored: pass", "edges-preserved: fail (1, 3)",
        "prevpos-and-written: fail 3", "configurations: fail 3",
        "result: fail"]


def test_extractions_agree_across_logics(m1_module):
    from bimodal.red_ssl import gen_f_ssl, build_f_ssl_model, \
        extract_accepting_tree_ssl
    params = ReductionParams(m1_module, [2, 1], "a")
    tree = am.find_accepting_tree(params.atm, "a", 2 ** params.N - 1)
    ssl_model, sp = build_f_ssl_model(params, tree)
    t1, _ = extract_accepting_tree_ssl(ssl_model, sp, params)
    prod_model, pp = build_f_s4s5_model(params, tree)
    t2, _ = extract_accepting_tree_s4s5(prod_model, pp, params)
    assert am.trees_label_equal(t1, t2)


# --- the cubic step encoding as a reference -------------------------------------

def cubic_compstep_s4s5(v, r, theta, direction):
    """The step encoding the quadratic one replaced: one guarded copy of
    the whole step for each pair (k, l), so its size is cubic in N."""
    N = v.params.N
    pos_guard = rightmost_zero if direction == am.RIGHT else rightmost_one
    pos_move = rightmost_one if direction == am.RIGHT else rightmost_zero
    mid = And(eq_vector(v.x_prevtime, v.alpha_time, -1),
              eq_vector(v.x_prevpos, v.alpha_pos, -1))
    parts = []
    for k in range(N):
        for l in range(N + 1):
            guard = And(rightmost_zero(v.alpha_time, k), pos_guard(v.alpha_pos, l))
            body = conj([eq_vector(v.alpha_time, v.x_prevtime, k),
                         rightmost_one(v.alpha_time, k),
                         eq_vector(v.alpha_pos, v.x_prevpos, l),
                         pos_move(v.alpha_pos, l),
                         eq_vector(v.alpha_prevpos, v.x_prevpos, -1),
                         v.alpha_state[r], v.alpha_written[theta]])
            parts.append(Implies(guard, L(And(mid, Diamond(body)))))
    return conj(parts)


@pytest.mark.parametrize("w, poly", [("a", [2, 1]), ("b", [2, 1]),
                                     ("a", [3, 1]), ("ab", [2, 1])])
def test_step_encoding_matches_cubic_reference(m1_module, monkeypatch, w, poly):
    params = ReductionParams(m1_module, poly, w)
    cat = f_s4s5_catalog(params)
    v = red_s4s5._S4Vocab(params, cat)

    def encode():
        # the step block alone is equivalent only where the carries persist
        step = And(red_s4s5._persistence(v),
                   K(Box(red_s4s5._computation_s4s5(v))))
        return gen_f_s4s5(params)[0], step

    new_f, new_step = encode()
    with monkeypatch.context() as mp:
        mp.setattr(red_s4s5, "_compstep_s4s5", cubic_compstep_s4s5)
        old_f, old_step = encode()
    assert fm.rendered_size(old_f) > fm.rendered_size(new_f)

    tree = am.find_accepting_tree(params.atm, w, 2 ** params.N - 1)
    witness, p0 = build_f_s4s5_model(params, tree)
    # product witness models are small enough to flip every atom singly
    carriers = [a for _, _, a in cat.entries()]
    # every position bit set at one point, or cleared in one whole cloud:
    # a cloud whose alpha_pos is all ones (all zeros) has no position
    # guard for a right (left) move
    pos_bits = [a for fam, _, a in cat.entries() if fam == "A_pos"]
    extremes = ([pinned(witness, pos_bits, [p], True) for p in witness.worlds]
                + [pinned(witness, pos_bits, cloud, False)
                   for cloud in clouds(witness)])
    for value in (0, 2 ** (params.N + 1) - 1):
        assert any(m.sat_set(eq_binary(v.alpha_pos, value)) for m in extremes)
    models = ([witness] + mutants(witness, random.Random(f"{w}/{params.N}"),
                                  carriers) + extremes)
    step_sets = set()
    for model in models:
        assert validate(model, S4S5_PRODUCT).ok
        assert model.sat_set(old_f) == model.sat_set(new_f)
        assert model.sat_set(old_step) == model.sat_set(new_step)
        step_sets.add(tuple(model.sat_set(new_step)))
    # the mutations reach the step block, so the comparison is not vacuous
    assert len(step_sets) > 1
