"""Row bitmasks are the model: the pairs constructor, the rows
constructor, the file format and the model transforms agree with one
another and with pair-set references, and the pair views behave like
frozensets of the same pairs."""

import gc
import hashlib
import random
import weakref

import pytest

from bimodal import atm as am
from bimodal.red_ssl import (ReductionParams, build_counter_ssl_model,
                             build_f_ssl_model, extract_accepting_tree_ssl,
                             gen_counter_ssl, gen_f_ssl)
from bimodal.red_s4s5 import (build_counter_s4s5_model, build_f_s4s5_model,
                              extract_accepting_tree_s4s5, gen_counter_s4s5,
                              gen_f_s4s5)
from bimodal.formula import atoms
from bimodal.reduction import _reachable_restriction
from bimodal.semantics import (BimodalModel, FRAME_CLASSES, CROSS_AXIOM,
                               S4S5_COMMUTATOR, S4S5_PRODUCT, validate,
                               save_model, load_model)
from bimodal.translations import (t_ssl_to_s4s5, lift_model_ssl_to_s4s5,
                                  restrict_model_s4s5_to_ssl, k4_to_s4_model)
from tests.conftest import FAN_PATH, M1_PATH
from tests.test_relations import random_model

# SHA-256 prefixes of the saved witnesses, as written when relations were
# still stored as pair sets (counter n=4 and m1 on "b" and "aba": as
# written when each logic had separate counter and machine builders; fan
# on "bbb", a branching tree with two-digit node ids: as written when the
# product witness was still built from sets of pairs): the files must not
# change.
SAVED_DIGESTS = {
    "counter-ssl-1": "1ff92164aa9c483800b36f9d03eb5123",
    "counter-s4s5-1": "e0d39d753a8ed2265e521d49768daa65",
    "counter-ssl-2": "290c2f3436b75735966d973f2b3dbc37",
    "counter-s4s5-2": "4315b0412fc7ad812387c045006e5b47",
    "counter-ssl-3": "ee2131af16abc8caec05291f3342a305",
    "counter-s4s5-3": "2e3123900e85d7f0c07773513ad27854",
    "counter-ssl-4": "a9a5c6869a9f5faa79acc0a4e606a5a6",
    "counter-s4s5-4": "d6c2d439903e77cb2087c6b363c13749",
    "m1-a-ssl": "030a5b3465c6763b867d31929b042bed",
    "m1-a-s4s5": "07c023f6eca9d901ec17b41a8951bf63",
    "m1-ab-ssl": "a0336775f97c0754ca66d86938cd935d",
    "m1-ab-s4s5": "4fdf06d4724a1fe94a38197b881a2497",
    "m1-b-ssl": "31fe70c48d06b3f990c2b84b42782230",
    "m1-b-s4s5": "e9a34a16f39270fe8dbcdaba8f9caad9",
    "m1-aba-ssl": "84c87d85320803f303b397a949d86a67",
    "m1-aba-s4s5": "3746a8641579f1e86811444d0442ce1e",
    "fan-bbb-ssl": "701a4ebcd23ffba20e286c9037993945",
    "fan-bbb-s4s5": "1b2710aa4c39e47286239d2396521e2b",
}


def witnesses():
    """(name, logic, model, point, formula) for every pinned witness."""
    out = []
    for n in (1, 2, 3, 4):
        out.append((f"counter-ssl-{n}", "ssl", *build_counter_ssl_model(n),
                    gen_counter_ssl(n)[0]))
        out.append((f"counter-s4s5-{n}", "s4s5", *build_counter_s4s5_model(n),
                    gen_counter_s4s5(n)[0]))
    m1 = am.parse_atm(M1_PATH.read_text())
    for w in ("a", "ab", "b", "aba"):
        params = ReductionParams(m1, [2, 1], w)
        tree = am.find_accepting_tree(m1, w, 2 ** params.N - 1)
        out.append((f"m1-{w}-ssl", "ssl", *build_f_ssl_model(params, tree),
                    gen_f_ssl(params)[0]))
        out.append((f"m1-{w}-s4s5", "s4s5", *build_f_s4s5_model(params, tree),
                    gen_f_s4s5(params)[0]))
    fan = am.parse_atm(FAN_PATH.read_text())
    params = ReductionParams(fan, [0, 1], "bbb")
    tree = am.find_accepting_tree(fan, "bbb", 2 ** params.N - 1)
    out.append(("fan-bbb-ssl", "ssl", *build_f_ssl_model(params, tree),
                gen_f_ssl(params)[0]))
    out.append(("fan-bbb-s4s5", "s4s5", *build_f_s4s5_model(params, tree),
                gen_f_s4s5(params)[0]))
    return out


WITNESSES = witnesses()


def from_pairs(model):
    """The same model through the pairs constructor, from plain sets."""
    return BimodalModel(model.worlds, set(model.rel_d), set(model.rel_l),
                        {a: set(s) for a, s in model.valuation.items()},
                        frame_class=model.frame_class,
                        designated=model.designated)


def rows(model):
    return model._succ_d, model._succ_l, model._atom_masks


def report_lines(model):
    return [validate(model, c).lines() for c in FRAME_CLASSES]


# ---------------------------------------------------------------------------
# Pair-set references of the model transforms.

def ref_clouds(model):
    rel_l = set(model.rel_l)
    return sorted({tuple(sorted(b for b in model.worlds if (a, b) in rel_l))
                   for a in model.worlds})


def ref_lift(model, w, main_atom):
    cloud_list = ref_clouds(model)
    owner = {x: i for i, members in enumerate(cloud_list) for x in members}
    names = set(model.worlds)

    def new_name(i):
        name = f"newpoint_{i}"
        while name in names:
            name = "_" + name
        return name

    new_points = [new_name(i) for i in range(len(cloud_list))]
    rel_l = set(model.rel_l)
    rel_d = set(model.rel_d)
    succ_clouds = {i: {i} for i in range(len(cloud_list))}
    for a, b in model.rel_d:
        succ_clouds[owner[a]].add(owner[b])
    for i, members in enumerate(cloud_list):
        extended = list(members) + [new_points[i]]
        for a in extended:
            rel_l.add((a, new_points[i]))
            rel_l.add((new_points[i], a))
            for j in succ_clouds[i]:
                rel_d.add((a, new_points[j]))
    valuation = {a: set(s) for a, s in model.valuation.items()}
    valuation[main_atom] = set(model.worlds)
    return BimodalModel(list(model.worlds) + new_points, rel_d, rel_l,
                        valuation, frame_class=S4S5_COMMUTATOR, designated=w)


def ref_submodel(model, keep, valuation, frame_class, w, extra_d=()):
    return BimodalModel(
        sorted(keep), {(a, b) for a, b in model.rel_d if a in keep and b in keep}
        | set(extra_d), {(a, b) for a, b in model.rel_l if a in keep and b in keep},
        valuation, frame_class=frame_class, designated=w)


def ref_restrict(model, w, f):
    main_atom = t_ssl_to_s4s5(f).main_atom
    main_set = model.valuation.get(main_atom, frozenset())
    keep = {v for w2 in model.l_successors(w) for v in model.d_successors(w2)
            if v in main_set}
    valuation = {a: model.valuation[a] & keep
                 for a in sorted(atoms(f) | {main_atom}) if a in model.valuation}
    return ref_submodel(model, keep, valuation, CROSS_AXIOM, w)


def ref_k4_to_s4(model, w):
    keep = set(model.l_successors(w))
    for w2 in model.l_successors(w):
        keep.update(model.d_successors(w2))
    valuation = {a: s & keep for a, s in model.valuation.items()}
    return ref_submodel(model, keep, valuation, S4S5_COMMUTATOR, w,
                        {(v, v) for v in keep})


# ---------------------------------------------------------------------------
# Rows and pairs agree.

@pytest.mark.parametrize("seed", range(3))
def test_random_models_agree_through_pairs_and_rows(seed):
    rng = random.Random(300 + seed)
    for _ in range(100):
        names, rel_d, rel_l, valuation = random_model(rng)
        n = len(names)
        pairs_model = BimodalModel(
            names, [(names[i], names[j]) for i, j in rel_d],
            [(names[i], names[j]) for i, j in rel_l],
            {a: {names[i] for i in s} for a, s in valuation.items()})
        rows_model = BimodalModel.from_rows(
            names, [sum(1 << j for j in range(n) if (i, j) in rel_d) for i in range(n)],
            [sum(1 << j for j in range(n) if (i, j) in rel_l) for i in range(n)],
            {a: sum(1 << i for i in s) for a, s in valuation.items()})
        assert rows(rows_model) == rows(pairs_model)
        assert report_lines(rows_model) == report_lines(pairs_model)
        text = save_model(pairs_model)
        assert save_model(rows_model) == text
        assert save_model(load_model(text)) == text


@pytest.mark.parametrize("name, logic, model, point, f", WITNESSES,
                         ids=[w[0] for w in WITNESSES])
def test_witness_rows_pairs_and_file_agree(name, logic, model, point, f):
    again = from_pairs(model)
    assert rows(again) == rows(model)
    assert report_lines(again) == report_lines(model)
    text = save_model(model)
    assert hashlib.sha256(text.encode()).hexdigest()[:32] == SAVED_DIGESTS[name]
    assert save_model(load_model(text)) == text
    assert rows(load_model(text)) == rows(model)


@pytest.mark.parametrize("name, logic, model, point, f", WITNESSES,
                         ids=[w[0] for w in WITNESSES])
def test_transforms_match_pair_set_references(name, logic, model, point, f):
    if logic == "ssl":
        result = t_ssl_to_s4s5(f)
        lifted, lp = lift_model_ssl_to_s4s5(model, point, result.main_atom)
        assert save_model(lifted) == save_model(
            ref_lift(model, point, result.main_atom))
        back, _ = restrict_model_s4s5_to_ssl(lifted, lp, f)
        assert save_model(back) == save_model(ref_restrict(lifted, lp, f))
    else:
        k4, _ = k4_to_s4_model(model, point, f)
        assert save_model(k4) == save_model(ref_k4_to_s4(model, point))


@pytest.mark.parametrize("name, logic, model, point, f", WITNESSES,
                         ids=[w[0] for w in WITNESSES])
def test_every_world_of_a_witness_is_reachable(name, logic, model, point, f):
    """Extraction then evaluates on the witness itself, through its own
    cache, not on a copy."""
    assert point == model.designated
    assert _reachable_restriction(model, point) is model


@pytest.mark.parametrize("logic", ["ssl", "s4s5"])
def test_nothing_outside_a_model_keeps_it_alive(logic):
    """Reports and evaluated masks are kept on the model, so they go
    with it."""
    build, gen, extract, frame_class = {
        "ssl": (build_f_ssl_model, gen_f_ssl, extract_accepting_tree_ssl,
                CROSS_AXIOM),
        "s4s5": (build_f_s4s5_model, gen_f_s4s5, extract_accepting_tree_s4s5,
                 S4S5_PRODUCT)}[logic]
    m1 = am.parse_atm(M1_PATH.read_text())
    params = ReductionParams(m1, [2, 1], "ab")
    tree = am.find_accepting_tree(m1, "ab", 2 ** params.N - 1)
    model, point = build(params, tree)
    assert validate(model, frame_class).ok
    assert model.eval(point, gen(params)[0])
    got, _ = extract(model, point, params)
    assert am.trees_label_equal(got, tree)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_from_rows_rejects_malformed_rows():
    with pytest.raises(ValueError, match="ascending"):
        BimodalModel.from_rows(["b", "a"], [1, 2], [1, 2], {})
    with pytest.raises(ValueError, match="duplicate"):
        BimodalModel.from_rows(["a", "a"], [1, 2], [1, 2], {})
    with pytest.raises(ValueError, match="d rows"):
        BimodalModel.from_rows(["a", "b"], [1, 4], [1, 2], {})
    with pytest.raises(ValueError, match="l rows"):
        BimodalModel.from_rows(["a", "b"], [1, 2], [1], {})
    with pytest.raises(ValueError, match="atom 3"):
        BimodalModel.from_rows(["a", "b"], [1, 2], [1, 2], {3: 4})
    with pytest.raises(ValueError, match="must be strings"):
        BimodalModel.from_rows([0, 1], [1, 2], [1, 2], {})


# ---------------------------------------------------------------------------
# The pair views.

@pytest.mark.parametrize("relation", ["rel_d", "rel_l"])
def test_pair_views_behave_like_frozensets(relation):
    model = WITNESSES[4][2]  # counter-ssl-3
    view = getattr(model, relation)
    pairs = frozenset(view)
    assert len(view) == len(pairs) > 0
    assert list(view) == sorted(pairs)
    assert set(view) == set(pairs)
    assert view == pairs and pairs == view
    some = sorted(pairs)[::3]
    for pair in some:
        assert pair in view
    outside = ("nowhere", model.worlds[0])
    assert outside not in view
    assert (model.worlds[0],) not in view and None not in view
    a, b = some[0]
    assert [a, b] not in view and a + b not in view
    other = frozenset(some[:5]) | {outside}
    for got, want in ((view - other, pairs - other), (other - view, other - pairs),
                      (view | other, pairs | other), (other | view, other | pairs),
                      (view & other, pairs & other)):
        assert type(got) is frozenset and got == want
    assert view != pairs - {some[0]}


def test_views_compare_equal_across_models():
    model = WITNESSES[4][2]
    again = from_pairs(model)
    assert model.rel_d == again.rel_d and model.rel_l == again.rel_l
    assert model.rel_d != model.rel_l
    assert model.valuation == again.valuation
    assert dict(model.valuation) == {a: frozenset(s) for a, s in again.valuation.items()}
    # a model with one more world and no more pairs has equal relations
    wider = BimodalModel(model.worlds + ("zz",), model.rel_d, model.rel_l, {})
    assert wider.rel_d == model.rel_d


def test_no_pair_sets_are_stored():
    model = WITNESSES[4][2]
    assert not [k for k, v in vars(model).items()
                if isinstance(v, (set, frozenset))]
    assert type(model._succ_d) is tuple and type(model._succ_l) is tuple
