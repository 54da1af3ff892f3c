"""The bitset relation kernel, pinned against brute-force references over
pair sets: frame validation, cloud partitions, the oracle's frame lists
and the formula evaluator."""

import functools
import hashlib
import itertools
import random
import re

import pytest

from bimodal import relations, satbound
from bimodal.formula import Atom, Not, And, K, Box, ATOM, NOT, AND, KMOD, postorder
from bimodal.semantics import (BimodalModel, validate, clouds, FRAME_CLASSES,
                               CROSS_AXIOM, S4S5_COMMUTATOR, K4S5_COMMUTATOR,
                               S4S5_PRODUCT, D_REFLEXIVE, RIGHT_COMMUTATIVE,
                               product_point, product_rows)
from tests.conftest import reference_commutes, reference_transitive


# ---------------------------------------------------------------------------
# References over pair sets; points are the indices 0..n-1.

def ref_reflexive(rel, n):
    return next(((i,) for i in range(n) if (i, i) not in rel), None)


def ref_symmetric(rel, n):
    return next(((i, j) for i in range(n) for j in range(n)
                 if (i, j) in rel and (j, i) not in rel), None)


def ref_transitive(rel, n):
    for i in range(n):
        missed = [k for k in range(n) if (i, k) not in rel
                  and any((i, j) in rel and (j, k) in rel for j in range(n))]
        if missed:
            k = missed[0]
            j = min(j for j in range(n) if (i, j) in rel and (j, k) in rel)
            return (i, j, k)
    return None


def ref_commutes(a, b, c, d, n):
    """From p -a-> q -b-> r there must be s with p -c-> s -d-> r."""
    for p, q, r in itertools.product(range(n), repeat=3):
        if ((p, q) in a and (q, r) in b
                and not any((p, s) in c and (s, r) in d for s in range(n))):
            return (p, q, r)
    return None


def ref_persistence(rel_d, valuation, n):
    """Atoms are constant along [] both ways: the first step that loses
    or gains one."""
    for atom_id in sorted(valuation):
        members = valuation[atom_id]
        for i, j in sorted(rel_d):
            if (i in members) != (j in members):
                return (atom_id, i, j)
    return None


def ref_provenance(names, rel_d, rel_l):
    """The worlds, point i named names[i], as a product: the first name
    without a "|", else the first missing cell of the grid of the parts
    (split at the first "|"), else the first world whose []- or K-row is
    not the product's, the factors read off the grid's first column and
    first row."""
    n = len(names)
    for w in names:
        if "|" not in w:
            return (w,)
    parts = [w.split("|", 1) for w in names]
    at = {w: i for i, w in enumerate(names)}
    firsts = {v for v, _ in parts}
    seconds = {x for _, x in parts}
    for cell in sorted(f"{v}|{x}" for v in firsts for x in seconds):
        if cell not in at:
            return (cell,)
    v0, x0 = min(names).split("|", 1)
    r1 = {(v, u) for v in firsts for u in firsts
          if (at[f"{v}|{x0}"], at[f"{u}|{x0}"]) in rel_d}
    r2 = {(x, y) for x in seconds for y in seconds
          if (at[f"{v0}|{x}"], at[f"{v0}|{y}"]) in rel_l}
    for i in sorted(range(n), key=names.__getitem__):
        v, x = parts[i]
        row_d = {j for j in range(n) if (i, j) in rel_d}
        row_l = {j for j in range(n) if (i, j) in rel_l}
        if (row_d != {at[f"{u}|{x}"] for u in firsts if (v, u) in r1}
                or row_l != {at[f"{v}|{y}"] for y in seconds if (x, y) in r2}):
            return (names[i],)
    return None


def ref_lines(frame_class, names, rel_d, rel_l, valuation):
    n = len(names)
    checks = [("l-reflexive", ref_reflexive(rel_l, n)),
              ("l-symmetric", ref_symmetric(rel_l, n)),
              ("l-transitive", ref_transitive(rel_l, n)),
              ("d-transitive", ref_transitive(rel_d, n))]
    if frame_class != K4S5_COMMUTATOR:
        checks.append(("d-reflexive", ref_reflexive(rel_d, n)))
    checks.append(("left-commutativity", ref_commutes(rel_d, rel_l, rel_l, rel_d, n)))
    if frame_class != CROSS_AXIOM:
        checks.append(("right-commutativity",
                       ref_commutes(rel_l, rel_d, rel_d, rel_l, n)))
    if frame_class == CROSS_AXIOM:
        checks.append(("atom-persistence", ref_persistence(rel_d, valuation, n)))
    if frame_class == S4S5_PRODUCT:
        checks.append(("product-provenance", ref_provenance(names, rel_d, rel_l)))
    lines = [f"class: {frame_class}"]
    for name, bad in checks:
        lines.append(f"{name}: pass" if bad is None
                     else f"{name}: fail {' '.join(str(x) for x in bad)}")
    ok = all(bad is None for _, bad in checks)
    lines.append(f"result: {'pass' if ok else 'fail'}")
    return lines


def closure(rel, n, reflexive=False, symmetric=False):
    rel = set(rel)
    if reflexive:
        rel |= {(i, i) for i in range(n)}
    if symmetric:
        rel |= {(j, i) for i, j in rel}
    for j in range(n):  # Warshall
        for i in range(n):
            if (i, j) in rel:
                rel |= {(i, k) for k in range(n) if (j, k) in rel}
    return rel


def random_grid(rng):
    """A product of a random relation with a random equivalence on worlds
    named "v|x", as (names, rel_d, rel_l), or a mutant of one with a
    pair dropped or added or a world deleted.  Parts of unequal length
    make the sorted names differ from the grid read row by row."""
    firsts = rng.sample(["a", "ab", "b"], rng.randint(1, 2))
    seconds = rng.sample(["x", "xy", "y"], rng.randint(1, 3))
    m1, m2 = len(firsts), len(seconds)
    r1 = closure({(v, u) for v in range(m1) for u in range(m1) if rng.random() < 0.4},
                 m1, reflexive=rng.random() < 0.8)
    r2 = closure({(x, y) for x in range(m2) for y in range(m2) if rng.random() < 0.3},
                 m2, reflexive=True, symmetric=True)
    names = sorted(f"{v}|{x}" for v in firsts for x in seconds)
    at = {(v, x): names.index(f"{firsts[v]}|{seconds[x]}")
          for v in range(m1) for x in range(m2)}
    rel_d = {(at[v, x], at[u, x]) for v, u in r1 for x in range(m2)}
    rel_l = {(at[v, x], at[v, y]) for v in range(m1) for x, y in r2}
    n = len(names)
    mutation = rng.randrange(4)  # 0 keeps the product
    if mutation == 1:
        rel = rng.choice([rel_d, rel_l])
        if rel:
            rel.remove(rng.choice(sorted(rel)))
    elif mutation == 2:
        rng.choice([rel_d, rel_l]).add((rng.randrange(n), rng.randrange(n)))
    elif mutation == 3 and n > 1:
        gone = rng.randrange(n)
        names.pop(gone)

        def without(rel):
            return {(i - (i > gone), j - (j > gone)) for i, j in rel
                    if gone not in (i, j)}
        rel_d, rel_l = without(rel_d), without(rel_l)
    return names, rel_d, rel_l


def random_model(rng):
    """At most 6 worlds, as (names, rel_d, rel_l, valuation) over the
    points 0..n-1, point i named names[i] and the names ascending.  Each
    relation is random or closed to the shape a class asks for, and one
    model in four is a product on "v|x"-named worlds or a one-step mutant
    of one, so that every check both passes and fails often."""
    if rng.random() < 0.25:
        names, rel_d, rel_l = random_grid(rng)
        return names, rel_d, rel_l, random_valuation(rng, len(names), rel_d)
    n = rng.randint(1, 5)
    density = rng.random()
    rel_d = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
    rel_l = {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4}
    if rng.random() < 0.6:
        rel_d = closure(rel_d, n, reflexive=rng.random() < 0.7)
    if rng.random() < 0.6:
        rel_l = closure(rel_l, n, reflexive=True, symmetric=True)
    if rng.random() < 0.3:  # commute by giving every point the same d-row
        rel_d = {(i, j) for i in range(n) for j in range(n)}
    return list("abcde"[:n]), rel_d, rel_l, random_valuation(rng, n, rel_d)


def random_valuation(rng, n, rel_d):
    valuation = {}
    for atom_id in rng.sample(range(4), rng.randint(0, 2)):
        members = {i for i in range(n) if rng.random() < 0.5}
        if rng.random() < 0.5:
            members |= {j for i, j in rel_d if i in members}
        valuation[atom_id] = members
    return valuation


def as_model(names, rel_d, rel_l, valuation):
    return BimodalModel(names, [(names[i], names[j]) for i, j in rel_d],
                        [(names[i], names[j]) for i, j in rel_l],
                        {a: {names[i] for i in s} for a, s in valuation.items()})


def named(lines, names):
    """Reference lines use indices, apart from the provenance line."""
    out = []
    for line in lines:
        head, sep, tail = line.partition(": fail ")
        if sep and not head.startswith(("atom-", "product-")):
            tail = " ".join(names[int(x)] for x in tail.split())
        elif sep and head == "atom-persistence":
            atom_id, *points = tail.split()
            tail = " ".join([atom_id] + [names[int(x)] for x in points])
        out.append(head + sep + tail)
    return out


# ---------------------------------------------------------------------------
# Frame validation and clouds.

@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_pair_set_reference(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(150):
        names, rel_d, rel_l, valuation = random_model(rng)
        model = as_model(names, rel_d, rel_l, valuation)
        for frame_class in FRAME_CLASSES:
            report = validate(model, frame_class)
            assert report.lines() == named(ref_lines(frame_class, names, rel_d,
                                                     rel_l, valuation), names)
            seen.update((c.name, c.passed) for c in report.checks)
    # every check was seen both passing and failing
    assert seen == {(name, ok) for name, _ in seen for ok in (True, False)}


@pytest.mark.parametrize("seed", range(2))
def test_clouds_match_reference_or_name_the_failing_property(seed):
    rng = random.Random(50 + seed)
    for _ in range(200):
        names, rel_d, rel_l, valuation = random_model(rng)
        n = len(names)
        model = as_model(names, rel_d, rel_l, valuation)
        failure = next(((name, bad) for name, bad in (
            ("reflexive", ref_reflexive(rel_l, n)),
            ("symmetric", ref_symmetric(rel_l, n)),
            ("transitive", ref_transitive(rel_l, n))) if bad is not None), None)
        if failure is None:
            expected = sorted({tuple(sorted(model.worlds[j] for j in range(n)
                                            if (i, j) in rel_l))
                               for i in range(n)})
            assert clouds(model) == expected
        else:
            name, bad = failure
            names = tuple(model.worlds[i] for i in bad)
            with pytest.raises(ValueError, match=re.escape(f"not {name}: {names}")):
                clouds(model)


@pytest.mark.parametrize("rel_l, prop", [
    ({("a", "a")}, "reflexive"),
    ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b")}, "symmetric"),
    ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a"),
      ("b", "c"), ("c", "b")}, "transitive"),
])
def test_clouds_rejects_non_equivalence(rel_l, prop):
    model = BimodalModel(["a", "b", "c"], [], rel_l, {})
    with pytest.raises(ValueError, match=f"not {prop}"):
        clouds(model)


def rows(rel, n):
    return [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]


def repeated_rows(rng, n):
    """n rows over n points drawn from a pool of at most three random
    rows: rows repeat, yet the relation is seldom an equivalence."""
    pool = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
    return [rng.choice(pool) for _ in range(n)]


def composed_checks(succ_d, succ_l):
    """The transitivity and commutativity checks as validate makes them,
    from each composition computed once."""
    dd, dl = relations.compose(succ_d, succ_d, succ_l)
    ll, ld = relations.compose(succ_l, succ_l, succ_d)
    return [relations.transitive(succ_l, ll), relations.transitive(succ_d, dd),
            relations.commutes(succ_d, succ_l, dl, ld),
            relations.commutes(succ_l, succ_d, ld, dl)]


def scanned_checks(succ_d, succ_l):
    return [reference_transitive(succ_l), reference_transitive(succ_d),
            reference_commutes(succ_d, succ_l, succ_l, succ_d),
            reference_commutes(succ_l, succ_d, succ_d, succ_l)]


@pytest.mark.parametrize("seed", range(2))
def test_compositions_name_the_row_scans_counterexamples(seed):
    rng = random.Random(90 + seed)
    seen = set()
    for _ in range(300):
        if rng.random() < 0.5:
            names, rel_d, rel_l, _ = random_model(rng)
            succ_d, succ_l = rows(rel_d, len(names)), rows(rel_l, len(names))
        else:
            n = rng.randint(1, 8)
            succ_d, succ_l = repeated_rows(rng, n), repeated_rows(rng, n)
        got = composed_checks(succ_d, succ_l)
        assert got == scanned_checks(succ_d, succ_l)
        seen.update((k, bad is None) for k, bad in enumerate(got))
    assert seen == {(k, ok) for k in range(4) for ok in (True, False)}


def equivalence_rows(rng, n):
    """The rows of a random equivalence on n points with at most four
    classes, with one pair flipped half the time."""
    owner = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
    succ = [sum(1 << j for j in range(n) if owner[j] == owner[i])
            for i in range(n)]
    if rng.random() < 0.5:
        succ[rng.randrange(n)] ^= 1 << rng.randrange(n)
    return succ


@pytest.mark.parametrize("seed", range(2))
def test_grouped_symmetry_names_the_pair_scans_counterexample(seed):
    rng = random.Random(120 + seed)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        succ = (equivalence_rows(rng, n) if rng.random() < 0.7
                else repeated_rows(rng, n))
        got = relations.symmetric(succ)
        assert got == ref_symmetric(
            {(i, j) for i in range(n) for j in relations.bits(succ[i])}, n)
        seen.add(got is None)
    assert seen == {True, False}


def test_groups_map_each_distinct_row_to_its_points():
    assert relations.groups([]) == {}
    got = relations.groups([0b110, 0b001, 0b110, 0b001, 0])
    assert list(got.items()) == [(0b110, 0b00101), (0b001, 0b01010), (0, 0b10000)]


@pytest.mark.parametrize("seed", range(2))
def test_classes_match_the_pairwise_property_checks(seed):
    # an equivalence gives its classes in order of their smallest member;
    # anything else gives the first failing property and its counterexample
    rng = random.Random(130 + seed)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        pick = rng.random()
        if pick < 0.6:
            succ = equivalence_rows(rng, n)
        elif pick < 0.8:
            succ = repeated_rows(rng, n)
        else:  # reflexive and symmetric, transitive by chance only
            edges = {(i, j) for i in range(n) for j in range(i + 1)
                     if i == j or rng.random() < 0.2}
            succ = rows(edges | {(j, i) for i, j in edges}, n)
        rel = {(i, j) for i in range(n) for j in relations.bits(succ[i])}
        failure = next(((name, bad) for name, bad in (
            ("reflexive", ref_reflexive(rel, n)),
            ("symmetric", ref_symmetric(rel, n)),
            ("transitive", ref_transitive(rel, n))) if bad is not None), None)
        blocks = []
        for i in range(n):
            if not any(b >> i & 1 for b in blocks):
                blocks.append(sum(1 << j for j in range(n) if (i, j) in rel))
        expected = (None, failure) if failure else (blocks, None)
        assert relations.classes(succ) == expected
        seen.add(failure and failure[0])
    assert seen == {None, "reflexive", "symmetric", "transitive"}


def test_bits_lists_set_bits_ascending():
    assert relations.bits(0) == ()
    assert relations.bits(0b101101) == (0, 2, 3, 5)
    assert relations.bits(1 << 200 | 1 << 7 | 1) == (0, 7, 200)
    assert relations.ones(0) == []
    assert relations.ones(1 << 200 | 1 << 7 | 1) == [200, 7, 0]


@pytest.mark.parametrize("decode", [relations.ones, relations.bits],
                         ids=["ones", "bits"])
def test_negative_masks_are_refused(decode):
    # a negative int has no top bit: clearing one only makes it longer
    with pytest.raises(ValueError, match="natural number, got -1"):
        decode(-1)


def decoded(row):
    """The set bits of row, ascending, read off its numeral one digit at a
    time: a reference that shares no code with `ones` or `bits`."""
    return [j for j, digit in enumerate(reversed(bin(row)[2:])) if digit == "1"]


# sizes around a 64-bit word and past the widest `branch` witness (1,024)
SCAN_SIZES = [1, 2, 63, 64, 65, 129, 1100]


def scan_rows(rng, n):
    """n rows over n points: empty, dense and sparse rows, runs of equal
    rows, and rows with a single bit at 0, 63, 64 or n - 1."""
    singles = [1 << j for j in (0, 63, 64, n - 1) if j < n]
    out = []
    for _ in range(n):
        pick = rng.random()
        if out and pick < 0.3:
            row = out[-1]
        elif pick < 0.4:
            row = 0
        elif pick < 0.45:
            row = (1 << n) - 1 & ~(rng.getrandbits(n) & rng.getrandbits(n))
        elif pick < 0.6:
            row = rng.choice(singles)
        else:
            row = sum(1 << j for j in {rng.randrange(n) for _ in range(6)})
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_compose_is_the_union_over_decoded_rows(seed):
    rng = random.Random(seed)
    for n in SCAN_SIZES + [rng.randint(1, 1100)]:
        a, b, c = (scan_rows(rng, n) for _ in range(3))
        assert relations.compose(a, b, c) == tuple(
            [functools.reduce(int.__or__, [s[j] for j in decoded(row)], 0)
             for row in a] for s in (b, c))
        assert all(relations.bits(row) == tuple(decoded(row)) for row in a)


# ---------------------------------------------------------------------------
# The oracle's frame lists.

def ref_frames(frame_class, m):
    """Partitions in restricted-growth order times transitive relations in
    ascending code order, filtered on pair sets."""
    partitions = [blocks for blocks in itertools.product(range(m), repeat=m)
                  if all(b <= max(blocks[:i], default=-1) + 1
                         for i, b in enumerate(blocks))]
    out = []
    for blocks in partitions:
        rel_l = {(i, j) for i in range(m) for j in range(m) if blocks[i] == blocks[j]}
        for code in range(1 << (m * m)):
            rel_d = {(i, j) for i in range(m) for j in range(m)
                     if code >> (i * m + j) & 1}
            if ref_transitive(rel_d, m) is not None:
                continue
            if (frame_class in (CROSS_AXIOM, S4S5_COMMUTATOR)
                    and ref_reflexive(rel_d, m) is not None):
                continue
            if ref_commutes(rel_d, rel_l, rel_l, rel_d, m) is not None:
                continue
            if (frame_class in (S4S5_COMMUTATOR, K4S5_COMMUTATOR)
                    and ref_commutes(rel_l, rel_d, rel_d, rel_l, m) is not None):
                continue
            out.append(([sum(1 << j for j in range(m) if (i, j) in rel_l)
                         for i in range(m)],
                        [sum(1 << j for j in range(m) if (i, j) in rel_d)
                         for i in range(m)]))
    return out


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("frame_class", [CROSS_AXIOM, S4S5_COMMUTATOR,
                                         K4S5_COMMUTATOR])
def test_oracle_frames_match_pair_set_reference(frame_class, m):
    assert [(succ_l, succ_d)
            for succ_l, succ_ds, *_ in satbound._frames(frame_class, m)
            for succ_d in succ_ds] == ref_frames(frame_class, m)


def test_relation_counts_match_oeis():
    # transitive relations: OEIS A006905; preorders: OEIS A000798
    assert [len(satbound._relation_lists(m)[0]) for m in range(1, 5)] == [2, 13, 171, 3994]
    assert [len(satbound._relation_lists(m)[1]) for m in range(1, 5)] == [1, 4, 29, 355]


# The labelled walk the oracle's lane filters replaced: one kernel call per
# candidate relation, frame and valuation mask.

@functools.lru_cache(maxsize=None)
def reference_transitive_relations(m):
    """Transitive relations on m points in ascending code order (row i in
    bits [i*m, (i+1)*m)), each a transitive relation on m-1 points
    extended by a column and a row and kept if still transitive."""
    if m == 0:
        return [[]]
    new = 1 << (m - 1)
    rels = []
    for sub in reference_transitive_relations(m - 1):
        for column in range(new):
            base = list(sub)
            for i in relations.bits(column):
                base[i] |= new
            for row in range(2 * new):
                succ = base + [row]
                if reference_transitive(succ) is None:
                    rels.append(succ)
    rels.sort(key=lambda succ: sum(r << (i * m) for i, r in enumerate(succ)))
    return rels


def reference_preorders(m):
    return [succ for succ in reference_transitive_relations(m)
            if relations.reflexive(succ) is None]


def reference_frame_groups(frame_class, m):
    """The groups of `satbound._frames` without their allowed masks,
    commutation checked one relation at a time."""
    out = []
    if frame_class == S4S5_PRODUCT:
        for m1 in range(1, m + 1):
            if m % m1:
                continue
            m2 = m // m1
            names = tuple(product_point(v, x)
                          for v in range(m1) for x in range(m2))
            for succ1 in reference_preorders(m1):
                for blocks in satbound._set_partitions(m2):
                    succ_d, succ_l = product_rows(
                        succ1, satbound._partition_succ(blocks, m2))
                    out.append((succ_l, [succ_d], names))
        return out
    rel_ds = (reference_preorders(m) if frame_class in D_REFLEXIVE
              else reference_transitive_relations(m))
    names = tuple(map(str, range(m)))
    for blocks in satbound._set_partitions(m):
        succ_l = satbound._partition_succ(blocks, m)
        out.append((succ_l, [
            succ_d for succ_d in rel_ds
            if reference_commutes(succ_d, succ_l, succ_l, succ_d) is None
            and not (frame_class in RIGHT_COMMUTATIVE and reference_commutes(
                succ_l, succ_d, succ_d, succ_l) is not None)], names))
    return out


def reference_persistent_masks(succ_d):
    full = (1 << len(succ_d)) - 1
    return tuple(mask for mask in range(full + 1)
                 if relations.closed(succ_d, mask) is None
                 and relations.closed(succ_d, full ^ mask) is None)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_relation_lists_match_labelled_walk(m):
    assert satbound._relation_lists(m)[0] == reference_transitive_relations(m)
    assert satbound._relation_lists(m)[1] == reference_preorders(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("frame_class", FRAME_CLASSES)
def test_frame_groups_match_labelled_walk(frame_class, m):
    assert ([group[:3] for group in satbound._frames(frame_class, m)]
            == reference_frame_groups(frame_class, m))


def test_persistent_masks_match_labelled_walk():
    for m in range(1, 5):
        for succ_d in satbound._relation_lists(m)[0]:
            assert satbound._persistent_masks(succ_d) == reference_persistent_masks(succ_d)


def frame_digest(frame_class, m):
    frames = [(list(succ_l), list(succ_d))
              for succ_l, succ_ds, *_ in satbound._frames(frame_class, m)
              for succ_d in succ_ds]
    return len(frames), hashlib.sha256(repr(frames).encode()).hexdigest()[:16]


# (frames, digest) at 4 and 5 points, as the labelled walk lists them
FRAME_DIGESTS = {
    CROSS_AXIOM: {4: (2853, "cc050fb0fde7630d"), 5: (115084, "fd0a3031e941d9d0")},
    S4S5_COMMUTATOR: {4: (1905, "2bcefe4deebf9825"), 5: (56044, "7c144e4c7649366c")},
    K4S5_COMMUTATOR: {4: (8404, "4350dbb489749d92"), 5: (360746, "ae30d496c4a4b279")},
    S4S5_PRODUCT: {4: (378, "07287e6c2dd7aee9"), 5: (6994, "01dd60ba18ebb9a8")},
}


def test_frame_lists_at_four_points_are_pinned():
    assert {c: frame_digest(c, 4) for c in FRAME_DIGESTS} == {
        c: pins[4] for c, pins in FRAME_DIGESTS.items()}


def test_frame_lists_at_five_points_are_pinned(five_point_frames):
    assert len(satbound._relation_lists(5)[0]) == 154303  # OEIS A006905
    assert len(satbound._relation_lists(5)[1]) == 6942  # OEIS A000798
    assert {c: frame_digest(c, 5) for c in FRAME_DIGESTS} == {
        c: pins[5] for c, pins in FRAME_DIGESTS.items()}


# ---------------------------------------------------------------------------
# The evaluator.

def ref_sat_set(f, n, rel_d, rel_l, valuation):
    if f.kind == ATOM:
        return set(valuation.get(f.value, ()))
    if f.kind == NOT:
        return set(range(n)) - ref_sat_set(f.left, n, rel_d, rel_l, valuation)
    if f.kind == AND:
        return (ref_sat_set(f.left, n, rel_d, rel_l, valuation)
                & ref_sat_set(f.right, n, rel_d, rel_l, valuation))
    rel = rel_l if f.kind == KMOD else rel_d
    body = ref_sat_set(f.left, n, rel_d, rel_l, valuation)
    return {i for i in range(n) if all(j in body for j in range(n) if (i, j) in rel)}


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return Atom(rng.randrange(3))
    pick = rng.randrange(4)
    if pick == 0:
        return Not(random_formula(rng, depth - 1))
    if pick == 1:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return (K if pick == 2 else Box)(random_formula(rng, depth - 1))


def test_sat_set_matches_reference_evaluator():
    rng = random.Random(7)
    for _ in range(150):
        names, rel_d, rel_l, valuation = random_model(rng)
        n = len(names)
        model = as_model(names, rel_d, rel_l, valuation)
        for _ in range(5):
            f = random_formula(rng, 4)
            expected = sorted(model.worlds[i]
                              for i in ref_sat_set(f, n, rel_d, rel_l, valuation))
            assert model.sat_set(f) == expected


def test_grouped_boxes_match_per_world_evaluation():
    # rows drawn from a small pool repeat without making an equivalence;
    # one cache serves every formula on a model, as a model's own does
    rng = random.Random(9)
    repeats = 0
    for _ in range(80):
        n = rng.randint(1, 10)
        succ_d, succ_l = repeated_rows(rng, n), repeated_rows(rng, n)
        rel_d, rel_l = ({(i, j) for i in range(n) for j in relations.bits(succ[i])}
                        for succ in (succ_d, succ_l))
        valuation = {a: {i for i in range(n) if rng.random() < 0.5}
                     for a in range(3)}
        masks = {a: sum(1 << i for i in members)
                 for a, members in valuation.items()}
        repeats += (len(set(succ_l)) < n
                    and relations.classes(succ_l)[1] is not None)
        cache = {}
        for _ in range(8):
            f = random_formula(rng, 4)
            got = relations.eval_masks(f, succ_d, succ_l, masks, n, cache)
            assert ({i for i in range(n) if got >> i & 1}
                    == ref_sat_set(f, n, rel_d, rel_l, valuation))
    assert repeats > 40


def test_packed_lanes_match_reference_evaluator():
    # lane v of each packed mask holds valuation v; every lane of the
    # result is the sat set of f under that valuation
    rng = random.Random(8)
    for _ in range(60):
        names, rel_d, rel_l, _ = random_model(rng)
        n = len(names)
        succ_d = [sum(1 << j for j in range(n) if (i, j) in rel_d) for i in range(n)]
        succ_l = [sum(1 << j for j in range(n) if (i, j) in rel_l) for i in range(n)]
        valuations = [{a: {i for i in range(n) if rng.random() < 0.5}
                       for a in range(3)} for _ in range(rng.randint(2, 9))]
        lane = sum(1 << v * n for v in range(len(valuations)))
        packed = {a: sum(sum(1 << v * n + i for i in val[a])
                         for v, val in enumerate(valuations))
                  for a in range(3)}
        for _ in range(5):
            f = random_formula(rng, 4)
            got = relations.eval_masks(f, succ_d, succ_l, packed, n, {}, lane)
            for v, val in enumerate(valuations):
                assert ({i for i in range(n) if got >> v * n + i & 1}
                        == ref_sat_set(f, n, rel_d, rel_l, val))


def test_boxes_with_one_miss_set_give_what_a_fresh_cache_gives():
    # Box(x0) and Box(!!x0) fail at the same points, and on one cache the
    # second box is decided over the row groups the first one left there
    rng = random.Random(11)
    x0 = Atom(0)
    for _ in range(80):
        n = rng.randint(1, 10)
        succ_d, succ_l = repeated_rows(rng, n), [rng.getrandbits(n) for _ in range(n)]
        masks = {0: rng.getrandbits(n)}
        cache = {}
        for op in (Box, K):
            for f in (op(x0), op(Not(Not(x0)))):
                assert (relations.eval_masks(f, succ_d, succ_l, masks, n, cache)
                        == relations.eval_masks(f, succ_d, succ_l, masks, n, {}))


def test_a_box_over_a_body_that_holds_everywhere_holds_everywhere():
    # point 1 has no successors and no point reaches itself
    succ = [0b010, 0, 0b011]
    rel = {(0, 1), (2, 0), (2, 1)}
    top = Not(And(Atom(0), Not(Atom(0))))
    cache = {}
    for f in (Box(Atom(0)), Box(top), K(top), K(Box(top))):
        got = relations.eval_masks(f, succ, succ, {0: 0b100}, 3, cache)
        assert got == sum(1 << i for i in ref_sat_set(f, 3, rel, rel, {0: {2}}))
    assert cache[Box(top)] == cache[K(top)] == cache[K(Box(top))] == 0b111


@pytest.mark.parametrize("packed", [False, True], ids=["lane-1", "packed"])
def test_a_shared_cache_gives_what_a_fresh_one_gives(packed):
    # g shares subformulas with f, so evaluating it after f on one cache
    # skips those f left there
    rng = random.Random(10)
    for _ in range(60):
        names, rel_d, rel_l, _ = random_model(rng)
        n = len(names)
        succ_d = [sum(1 << j for j in range(n) if (i, j) in rel_d) for i in range(n)]
        succ_l = [sum(1 << j for j in range(n) if (i, j) in rel_l) for i in range(n)]
        count = rng.randint(2, 9) if packed else 1
        lane = sum(1 << v * n for v in range(count))
        masks = {a: rng.getrandbits(count * n) for a in range(3)}
        cache = {}
        for _ in range(5):
            f = random_formula(rng, 4)
            g = And(rng.choice(postorder(f)), random_formula(rng, 4))
            relations.eval_masks(f, succ_d, succ_l, masks, n, cache, lane)
            assert (relations.eval_masks(g, succ_d, succ_l, masks, n, cache, lane)
                    == relations.eval_masks(g, succ_d, succ_l, masks, n, {}, lane))
