"""Subset-space reduction: counter formulas, machine-run formulas, witness
models, and the tree extraction that inverts the construction."""

import random

import pytest

from bimodal import formula as fm
from bimodal import atm as am
from bimodal import red_ssl, satbound
from bimodal.formula import (Atom, And, L, Diamond, Implies, conj, eq_vector,
                             eq_binary, rightmost_zero, rightmost_one)
from bimodal.semantics import validate, clouds, CROSS_AXIOM
from bimodal.red_ssl import (ReductionParams, ExtractionError, SSL,
                             gen_counter_ssl, build_counter_ssl_model,
                             extract_counter_trace, f_ssl_catalog, gen_f_ssl,
                             build_f_ssl_model, extract_accepting_tree_ssl,
                             entries_left_then_right, window_offset,
                             window_pos)
from bimodal.reduction import check_morphism, counter_catalog
from tests.conftest import mutants, pinned


def decode_counter(model, point, cat, n):
    # counter bits are shared variables, not raw atoms: read them through
    # the L(A_k & []LB) wrapper
    return sum(1 << k for k in range(n)
               if model.eval(point, fm.shared_var_ssl(k, cat)))


# --- reduction parameters ----------------------------------------------------

def test_params_window(m1):
    params = ReductionParams(m1, [2, 1], "ab")
    assert params.n == 2 and params.N == 4
    assert window_offset(4) == 15
    assert window_pos(4, 0) == 15 and window_pos(4, -3) == 12


def test_params_reject_shrinking_poly(m1):
    with pytest.raises(ValueError):
        ReductionParams(m1, [0], "ab")  # p(n) < n


def test_params_reject_a_word_outside_the_input_alphabet(m1):
    # the same rule, and message, as the machine's own initial configuration
    message = "input symbol '#' is not in the input alphabet"
    with pytest.raises(am.AtmError, match=message):
        am.initial_config(m1, "a#")
    with pytest.raises(am.AtmError, match=message):
        ReductionParams(m1, [2, 1], "a#")


# --- counter -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_model_satisfies_counter_formula(n):
    f, cat = gen_counter_ssl(n)
    model, p0 = build_counter_ssl_model(n)
    assert validate(model, CROSS_AXIOM).ok
    assert model.eval(p0, f)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counter_trace_decodes_to_all_values(n):
    _, cat = gen_counter_ssl(n)
    model, p0 = build_counter_ssl_model(n)
    p_points, p_prime = extract_counter_trace(model, p0, n)
    assert len(p_points) == 2 ** n
    assert len(p_prime) == 2 ** n - 1
    values = [decode_counter(model, p, cat, n) for p in p_points]
    assert values == list(range(2 ** n))


def test_counter_trace_from_a_five_point_oracle_hit(five_point_frames):
    # a model no witness constructor made: the first 5-point cross-axiom
    # model of the one-bit counter (4 points are not enough)
    f, cat = gen_counter_ssl(1)
    verdict = satbound.bounded_sat(f, CROSS_AXIOM, max_points=5)
    assert verdict.satisfiable and len(verdict.model.worlds) == 5
    assert (verdict.frames, verdict.candidates) == (29975, 2580506)
    p_points, p_prime = extract_counter_trace(verdict.model, verdict.point, 1)
    assert len(p_points) == 2 and len(p_prime) == 1
    assert [decode_counter(verdict.model, p, cat, 1) for p in p_points] == [0, 1]


def test_counter_catalog_layout():
    cat = counter_catalog(SSL, 2)
    assert cat.atom("B") == 0
    assert cat.atom("A", 0) == 1 and cat.atom("A", 1) == 2
    assert cat.atom("X", 0) == 3 and cat.atom("X", 1) == 4


def test_counter_generation_is_deterministic():
    f1, _ = gen_counter_ssl(3)
    f2, _ = gen_counter_ssl(3)
    assert fm.render(f1) == fm.render(f2)


def test_counter_extraction_rejects_broken_model():
    _, cat = gen_counter_ssl(2)
    model, p0 = build_counter_ssl_model(2)
    # flip the least significant counter bit at the start point
    atom = cat.atom("A", 0)
    valuation = {a: set(s) for a, s in model.valuation.items()}
    valuation.setdefault(atom, set()).add(p0)
    from bimodal.semantics import BimodalModel
    broken = BimodalModel(model.worlds, model.rel_d, model.rel_l, valuation,
                          frame_class=model.frame_class, designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_counter_trace(broken, p0, 2)
    assert err.value.kind == "extraction-failure"


# --- machine-run formula -----------------------------------------------------

@pytest.fixture(scope="module")
def params_a(m1_module):
    return ReductionParams(m1_module, [2, 1], "a")


@pytest.fixture(scope="module")
def m1_module():
    from tests.conftest import M1_PATH
    return am.parse_atm(M1_PATH.read_text())


@pytest.fixture(scope="module")
def ssl_setup(params_a):
    f, cat = gen_f_ssl(params_a)
    tree = am.find_accepting_tree(params_a.atm, "a", 2 ** params_a.N - 1)
    model, p0 = build_f_ssl_model(params_a, tree)
    return params_a, f, cat, tree, model, p0


def test_f_ssl_catalog_families(params_a):
    cat = f_ssl_catalog(params_a)
    N = params_a.N
    assert cat.atom("B") == 0
    assert len(cat.vector("A_time", N)) == N
    assert len(cat.vector("A_pos", N + 1)) == N + 1
    for q in params_a.atm.states:
        cat.atom("A_state", q)
    for s in params_a.atm.symbols:
        cat.atom("A_written", s)
        cat.atom("A_read", s)
        cat.atom("X_read", s)
    cat.vector("X_time", N)
    cat.vector("X_tapv", N)
    cat.vector("X_pos", N + 1)


def test_entries_group_left_before_right(m1_module):
    entries = entries_left_then_right(m1_module, "q1", "a")
    directions = [e[2] for e in entries]
    assert directions == sorted(directions, key=lambda d: d != am.LEFT)
    assert set(entries) == set(m1_module.delta_for("q1", "a"))


def test_f_ssl_is_deterministic(params_a):
    f1, _ = gen_f_ssl(params_a)
    f2, _ = gen_f_ssl(params_a)
    assert fm.render(f1) == fm.render(f2)


def test_f_ssl_witness_model(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    assert validate(model, CROSS_AXIOM).ok
    assert model.eval(p0, f)


def test_f_ssl_extraction_round_trip(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    extracted, pi = extract_accepting_tree_ssl(model, p0, params)
    assert am.validate_tree(params.atm, params.w, extracted).ok
    assert am.trees_label_equal(extracted, tree)
    report = check_morphism(SSL, model, p0, params, extracted, pi)
    assert report.ok


def test_f_ssl_extraction_flags_wrong_start(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    from bimodal.semantics import BimodalModel
    # the start conjunct requires the root marker B; drop it at the root
    atom = cat.atom("B")
    valuation = {a: set(s) for a, s in model.valuation.items()}
    valuation[atom] = valuation[atom] - {p0}
    broken = BimodalModel(model.worlds, model.rel_d, model.rel_l, valuation,
                          frame_class=model.frame_class, designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_accepting_tree_ssl(broken, p0, params)
    assert err.value.kind == "witness-not-found"


def test_f_ssl_extraction_flags_missing_edge(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    from bimodal.semantics import BimodalModel
    # drop every L-edge out of the designated point except the loop
    rel_l = [(a, b) for a, b in model.rel_l
             if not (a == p0 and b != p0) and not (b == p0 and a != p0)]
    broken = BimodalModel(model.worlds, model.rel_d, rel_l, model.valuation,
                          frame_class=model.frame_class, designated=p0)
    with pytest.raises(ExtractionError):
        extract_accepting_tree_ssl(broken, p0, params)


def test_f_ssl_extraction_names_a_broken_l_relation(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    from bimodal.semantics import BimodalModel
    # without one L pair the relation is no longer symmetric; extraction
    # stops before growing the tree and names the pair left behind
    a, b = min((x, y) for x, y in model.rel_l if x != y)
    broken = BimodalModel(model.worlds, model.rel_d, model.rel_l - {(a, b)},
                          model.valuation, frame_class=model.frame_class,
                          designated=p0)
    with pytest.raises(ExtractionError) as err:
        extract_accepting_tree_ssl(broken, p0, params)
    assert err.value.kind == "invalid-frame"
    assert err.value.detail == f"l-symmetric fails at {b} {a}"


def test_f_ssl_morphism_report_lines(ssl_setup):
    params, f, cat, tree, model, p0 = ssl_setup
    extracted, pi = extract_accepting_tree_ssl(model, p0, params)
    assert check_morphism(SSL, model, p0, params, extracted, pi).lines() == [
        "root-anchored: pass", "edges-preserved: pass",
        "written-symbols: pass", "configurations: pass", "result: pass"]
    # node 3 is a leaf under node 1; the root's cloud is not below node 1's
    assert extracted.parent[3] == 1
    moved = dict(pi)
    moved[3] = p0
    assert check_morphism(SSL, model, p0, params, extracted, moved).lines() == [
        "root-anchored: pass", "edges-preserved: fail (1, 3)",
        "written-symbols: fail 3", "configurations: fail 3", "result: fail"]


def test_rejecting_word_has_no_witness_tree(m1_module):
    # the machine rejects 'b...' runs that hit qrej; but every input here
    # is accepted, so instead check that the tree search bound matters
    params = ReductionParams(m1_module, [2, 1], "a")
    assert am.find_accepting_tree(params.atm, "a", 0) is None


# --- the cubic step encoding as a reference -------------------------------------

def cubic_compstep_ssl(v, r, theta, direction):
    """The step encoding the quadratic one replaced: one guarded copy of
    the whole step for each pair (k, l), so its size is cubic in N."""
    N = v.params.N
    after = conj([eq_vector(v.alpha_time, v.x_time, -1),
                  eq_vector(v.alpha_pos, v.x_pos, -1),
                  v.alpha_state[r], v.alpha_written[theta],
                  eq_vector(v.alpha_read_vec, v.x_read_vec, -1)])
    parts = []
    for k in range(N):
        for l in range(N + 1):
            if direction == am.RIGHT:
                pos_guard = rightmost_zero(v.alpha_pos, l)
                pos_move = rightmost_one(v.x_pos, l)
            else:
                pos_guard = rightmost_one(v.alpha_pos, l)
                pos_move = rightmost_zero(v.x_pos, l)
            guard = conj([v.b, rightmost_zero(v.alpha_time, k), pos_guard])
            body = conj([v.b, eq_vector(v.x_time, v.alpha_time, k),
                         rightmost_one(v.x_time, k),
                         eq_vector(v.x_pos, v.alpha_pos, l), pos_move,
                         Diamond(after)])
            parts.append(Implies(guard, L(body)))
    return conj(parts)


@pytest.mark.parametrize("w, poly", [("a", [2, 1]), ("b", [2, 1]),
                                     ("a", [3, 1]), ("ab", [2, 1])])
def test_step_encoding_matches_cubic_reference(m1_module, monkeypatch, w, poly):
    params = ReductionParams(m1_module, poly, w)
    cat = f_ssl_catalog(params)
    v = red_ssl._SslVocab(params, cat)

    def encode():
        return gen_f_ssl(params)[0], red_ssl._computation_ssl(v)

    new_f, new_step = encode()
    with monkeypatch.context() as mp:
        mp.setattr(red_ssl, "_compstep_ssl", cubic_compstep_ssl)
        old_f, old_step = encode()
    assert fm.rendered_size(old_f) > fm.rendered_size(new_f)

    tree = am.find_accepting_tree(params.atm, w, 2 ** params.N - 1)
    witness, p0 = build_f_ssl_model(params, tree)
    # the persistent X vectors are what the step reads inside the L
    carriers = [a for fam, _, a in cat.entries() if fam.startswith("X_")]
    # every position bit set at one B point, or cleared in one whole
    # cloud: a cloud whose alpha_pos is all ones (all zeros) has no
    # position guard for a right (left) move
    pos_bits = [a for fam, _, a in cat.entries() if fam == "A_pos"]
    extremes = ([pinned(witness, pos_bits, [p], True)
                 for p in sorted(witness.valuation[cat.atom("B")])]
                + [pinned(witness, pos_bits, cloud, False)
                   for cloud in clouds(witness)])
    for value in (0, 2 ** (params.N + 1) - 1):
        assert any(m.sat_set(And(v.b, eq_binary(v.alpha_pos, value)))
                   for m in extremes)
    models = ([witness] + mutants(witness, random.Random(f"{w}/{params.N}"),
                                  carriers) + extremes)
    step_sets = set()
    for model in models:
        assert validate(model, CROSS_AXIOM).ok
        assert model.sat_set(old_f) == model.sat_set(new_f)
        assert model.sat_set(old_step) == model.sat_set(new_step)
        step_sets.add(tuple(model.sat_set(new_step)))
    # the mutations reach the step block, so the comparison is not vacuous
    assert len(step_sets) > 1
