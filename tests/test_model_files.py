"""Model files: the reader gives what a plain line-by-line reader gives,
the same model or the same error, on saved files, on every way of bending
them and on every way of regrouping their lines; saved files read back
byte for byte."""

import os
import random
import re
import subprocess
import sys

import pytest

from bimodal.semantics import BimodalModel, load_model, save_model
from tests.conftest import ROOT
from tests.test_model_rows import WITNESSES
from tests.test_relations import SCAN_SIZES, decoded, random_model, scan_rows


def reference_load_model(text):
    """The line-by-line reader `load_model` was before it read relation
    blocks, with an atom id that is not a natural number in ASCII decimal
    digits made a bad line, the val lines of one atom ORed together, and
    a second class or designated line made a bad line."""
    worlds = []
    rel_d = []
    rel_l = []
    valuation = {}
    frame_class = None
    designated = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        head = parts[0]
        if head == "d" and len(parts) == 3:
            rel_d.append((parts[1], parts[2]))
        elif head == "l" and len(parts) == 3:
            rel_l.append((parts[1], parts[2]))
        elif head == "world" and len(parts) == 2:
            worlds.append(parts[1])
        elif head == "val" and len(parts) >= 2:
            if not re.fullmatch(r"[0-9]+", parts[1]):
                raise ValueError(f"bad model line {lineno}: {raw!r}")
            valuation.setdefault(int(parts[1]), set()).update(parts[2:])
        elif head == "class" and len(parts) == 2 and frame_class is None:
            frame_class = parts[1]
        elif head == "designated" and len(parts) == 2 and designated is None:
            designated = parts[1]
        else:
            raise ValueError(f"bad model line {lineno}: {raw!r}")
    return BimodalModel(worlds, rel_d, rel_l, valuation,
                        frame_class=frame_class, designated=designated)


def outcome(read, text):
    try:
        model = read(text)
    except ValueError as err:
        return str(err)
    return (model.worlds, model._succ_d, model._succ_l, model._atom_masks,
            model.frame_class, model.designated)


def renamed(model, old, new):
    """model with its world old named new (the designated world too)."""
    def name(w):
        return new if w == old else w
    return BimodalModel(
        [name(w) for w in model.worlds],
        [(name(a), name(b)) for a, b in model.rel_d],
        [(name(a), name(b)) for a, b in model.rel_l],
        {a: {name(w) for w in s} for a, s in model.valuation.items()},
        frame_class=model.frame_class,
        designated=name(model.designated))


# ---------------------------------------------------------------------------
# Ways to bend a saved file, drawn from a seeded random source.

def _insert(lines, rng, line):
    at = rng.randint(0, len(lines))
    return lines[:at] + [line] + lines[at:]


def _lines_of(lines, head):
    return [k for k, line in enumerate(lines) if line.split()[:1] == [head]]


def _swap(lines, ks, rng):
    out = list(lines)
    if len(ks) > 1:
        a, b = rng.sample(ks, 2)
        out[a], out[b] = out[b], out[a]
    return out


def _moved_line_end(text, rng):
    """One line end moved past the next token or back before the last, so
    that two lines trade a token and the tokens stay in order."""
    ends = [m.start() for m in re.finditer("\n", text[:-1])]
    if not ends:
        return text
    k = rng.choice(ends)
    if rng.random() < 0.5:
        space = text.find(" ", k)
        if space < 0 or text.find("\n", k + 1) < space:
            return text
        return text[:k] + " " + text[k + 1:space] + "\n" + text[space + 1:]
    space = text.rfind(" ", 0, k)
    if space < 0 or text.rfind("\n", 0, k) > space:
        return text
    return text[:space] + "\n" + text[space + 1:k] + " " + text[k + 1:]


def _replace_one(text, old, new, rng):
    spots = [m.start() for m in re.finditer(re.escape(old), text)]
    if not spots:
        return text
    k = rng.choice(spots)
    return text[:k] + new + text[k + len(old):]


def _unknown_in(lines, head, rng):
    """One name of a d, l or val line made a world the model lacks."""
    ks = _lines_of(lines, head)
    if not ks:
        return lines + [f"{head} nowhere nowhere"]
    k = rng.choice(ks)
    parts = lines[k].split()
    if head == "val":
        parts.append("nowhere")
    else:
        parts[rng.randint(1, 2)] = "nowhere"
    return lines[:k] + [" ".join(parts)] + lines[k + 1:]


BAD_LINES = ("d a", "l a b c", "val abc w", "val", "world", "world a b",
             "foo bar", "class", "designated a b", "d", "l w0", "val -1 w",
             "val +1 w", "val 1_0 w", "val \u0661 w")


def bent(text, rng):
    """(what, text) for the saved text and each way of bending it."""
    lines = text.splitlines()
    out = [("saved", text),
           ("comment", "\n".join(_insert(lines, rng, "# a comment d a b")) + "\n"),
           ("hash-line", "\n".join(_insert(lines, rng, "#x y")) + "\n"),
           ("blank", "\n".join(_insert(lines, rng, "")) + "\n"),
           ("spaces-line", "\n".join(_insert(lines, rng, "   ")) + "\n"),
           ("tab", _replace_one(text, " ", "\t", rng)),
           ("double-space", _replace_one(text, " ", "  ", rng)),
           ("leading-space", _replace_one(text, "\n", "\n ", rng)),
           ("trailing-space", _replace_one(text, "\n", " \n", rng)),
           ("shuffled", "\n".join(rng.sample(lines, len(lines))) + "\n"),
           ("crlf", text.replace("\n", "\r\n")),
           ("no-final-newline", text[:-1]),
           ("form-feed", _replace_one(text, "\n", "\x0c", rng)),
           # splitlines ends a line at these, split only separates words
           ("vertical-tab", _replace_one(text, " ", " \x0b", rng)),
           ("next-line", _replace_one(text, " ", " \x85", rng)),
           ("world-swap", "\n".join(_swap(lines, _lines_of(lines, "world"), rng)) + "\n"),
           ("d-swap", "\n".join(_swap(lines, _lines_of(lines, "d"), rng)) + "\n"),
           ("l-swap", "\n".join(_swap(lines, _lines_of(lines, "l"), rng)) + "\n"),
           ("d-before-world", "\n".join(
               [x for x in lines if x.startswith("d ")]
               + [x for x in lines if not x.startswith("d ")]) + "\n")]
    for head in ("world", "d", "l", "val"):
        ks = _lines_of(lines, head)
        if ks:
            k = rng.choice(ks)
            out.append((f"{head}-repeated",
                        "\n".join(lines[:k + 1] + lines[k:]) + "\n"))
            out.append((f"{head}-dropped",
                        "\n".join(lines[:k] + lines[k + 1:]) + "\n"))
        if head != "world":
            out.append((f"{head}-unknown",
                        "\n".join(_unknown_in(lines, head, rng)) + "\n"))
    for bad in BAD_LINES:
        out.append((f"bad {bad!r}", "\n".join(_insert(lines, rng, bad)) + "\n"))
    for k in range(4):
        out.append((f"moved-line-end-{k}", _moved_line_end(text, rng)))
    for head in ("world", "d", "l"):
        # with a world named head, "X\nd d Y" made "X d\nd Y" leaves every
        # count of tokens, spaces and line heads as it was
        out.append((f"{head}-named-line-end", text.replace(
            f"\n{head} {head} ", f" {head}\n{head} ", 1)))
    repeat = _repeated_run(lines, rng)
    if repeat is not None:
        # a row that repeats the row before is read without a split: edit
        # it so that it no longer does, or so that it moves to that source
        start, stop, before = repeat
        head, source, target = lines[stop - 1].split()
        worlds = [line.split()[1] for line in lines if line.startswith("world ")]
        targets = {line.split()[2] for line in lines[start:stop]}
        extra = rng.choice([w for w in worlds if w not in targets] or worlds)
        other = rng.choice([w for w in worlds if w != target])
        kept = lines[start:stop - 1]
        for what, run in (
                ("repeat-last-dropped", kept),
                ("repeat-line-added",
                 lines[start:stop] + [f"{head} {source} {extra}"]),
                ("repeat-last-retargeted", kept + [f"{head} {source} {other}"]),
                ("repeat-source-before", [f"{head} {before} {line.split()[2]}"
                                          for line in lines[start:stop]])):
            out.append((what, "\n".join(lines[:start] + run + lines[stop:]) + "\n"))
    return out


def _runs(lines):
    """[head, source, start, stop, targets] for each source's run of d or l
    lines, in file order."""
    runs = []
    for k, line in enumerate(lines):
        parts = line.split()
        if parts[0] not in ("d", "l"):
            continue
        if runs and runs[-1][:2] == parts[:2] and runs[-1][3] == k:
            runs[-1][3] = k + 1
            runs[-1][4].append(parts[2])
        else:
            runs.append([parts[0], parts[1], k, k + 1, [parts[2]]])
    return runs


def _repeated_run(lines, rng):
    """(start, stop, source of the run before) of a run of d or l lines,
    drawn from rng, whose targets are those of the run just before it
    with the same head; None when there is none."""
    runs = _runs(lines)
    repeats = [(b[2], b[3], a[1]) for a, b in zip(runs, runs[1:])
               if a[0] == b[0] and a[3] == b[2] and a[4] == b[4]]
    return rng.choice(repeats) if repeats else None


def regrouped(text, rng):
    """(what, text) for ways to regroup the lines of a saved file that
    keep its model and that `bent` does not make: CRLF line ends, a
    source's run of lines split in two by another line, and the world
    lines moved after the lines that name them, out of sorted order."""
    lines = text.splitlines()
    out = [("crlf", text.replace("\n", "\r\n"))]
    runs = [run for run in _runs(lines) if run[3] - run[2] > 1]
    if runs:  # a saved file with relation lines has world lines too
        _, _, start, stop, _ = rng.choice(runs)
        k = rng.choice([k for k in range(len(lines)) if not start <= k < stop])
        rest = lines[:k] + lines[k + 1:]
        cut = rng.randint(start + 1, stop - 1) - (k < start)
        out.append(("run-split", "\n".join(rest[:cut] + [lines[k]] + rest[cut:]) + "\n"))
    worlds = [line for line in lines if line.startswith("world ")]
    if len(worlds) > 1:
        moved = rng.sample(worlds, len(worlds))
        if moved == worlds:
            moved.reverse()
        out.append(("worlds-last", "\n".join(
            [line for line in lines if not line.startswith("world ")] + moved) + "\n"))
    return out


def repeat_continued(text, rng):
    """The saved text with two more lines of a source whose run repeats
    the targets of the run before, just after that run: one repeats a
    pair and one adds a target drawn from rng; None when no run repeats."""
    lines = text.splitlines()
    repeat = _repeated_run(lines, rng)
    if repeat is None:
        return None
    start, stop, _ = repeat
    head, source, target = lines[start].split()
    world = rng.choice([line.split()[1] for line in lines if line.startswith("world ")])
    return "\n".join(lines[:stop] + [f"{head} {source} {target}", f"{head} {source} {world}"]
                     + lines[stop:]) + "\n"


def assert_readers_agree(text, rng):
    for what, t in bent(text, rng):
        assert outcome(load_model, t) == outcome(reference_load_model, t), what


# Names that are line heads, start a comment, read as atom ids or are not
# ASCII.
ODD_NAMES = ("d", "l", "val", "world", "class", "#x", "u_T_A_written_#", "7",
             "\xe9")


def random_models(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        names, rel_d, rel_l, valuation = random_model(rng)
        model = BimodalModel(
            names, [(names[i], names[j]) for i, j in rel_d],
            [(names[i], names[j]) for i, j in rel_l],
            {a: {names[i] for i in s} for a, s in valuation.items()},
            frame_class=rng.choice((None, "cross-axiom")),
            designated=rng.choice((None, names[0])))
        if rng.random() < 0.4:
            model = renamed(model, rng.choice(model.worlds), rng.choice(
                [x for x in ODD_NAMES if x not in model.index]))
        yield model


@pytest.mark.parametrize("seed", range(3))
def test_random_files_read_alike(seed):
    rng = random.Random(700 + seed)
    for model in random_models(600 + seed, 60):
        assert_readers_agree(save_model(model), rng)


# the fan witnesses are the branch ones, read below
SMALL_WITNESSES = [w for w in WITNESSES if not w[0].startswith("fan-")]


@pytest.mark.parametrize("name, logic, model, point, f", SMALL_WITNESSES,
                         ids=[w[0] for w in SMALL_WITNESSES])
def test_witness_files_read_alike(name, logic, model, point, f):
    assert_readers_agree(save_model(model), random.Random(name))


@pytest.mark.parametrize("which", ["fan-ssl", "fan-s4s5"])
def test_branch_witness_files_read_alike(branch_witnesses, which):
    model = next(m for name, m, *_ in branch_witnesses if name == which)
    assert_readers_agree(save_model(model), random.Random(which))


def test_saved_files_read_back_byte_for_byte(branch_witnesses):
    """A saved file reads to the model the line-by-line reader gives and
    saves back to the same text; its lines regrouped read to the same
    model, and a repeated run with more lines of its source after it reads
    alike."""
    models = [w[2] for w in SMALL_WITNESSES] + [w[1] for w in branch_witnesses]
    models += random_models(900, 100)
    assert {"d", "l", "world", "\xe9"} <= {w for m in models for w in m.worlds}
    rng = random.Random(900)
    continued = 0
    for model in models:
        text = save_model(model)
        saved = outcome(load_model, text)
        assert saved == outcome(reference_load_model, text)
        assert save_model(load_model(text)) == text
        for what, t in regrouped(text, rng):
            assert outcome(load_model, t) == outcome(reference_load_model, t) == saved, what
        t = repeat_continued(text, rng)
        if t is not None:
            continued += 1
            assert outcome(load_model, t) == outcome(reference_load_model, t)
    assert continued > 20


def test_out_of_order_world_lines_keep_repeated_rows_one_int(branch_witnesses):
    # carried to sorted order, each distinct row is made once, so the rows
    # the file repeats are one int as in the file read in order
    model = next(m for name, m, *_ in branch_witnesses if name == "fan-s4s5")
    text = save_model(model)
    lines = text.splitlines(keepends=True)
    worlds = [line for line in lines if line.startswith("world ")]
    in_order = load_model(text)
    out_of_order = load_model("".join(
        worlds[::-1] + [line for line in lines if not line.startswith("world ")]))
    assert save_model(out_of_order) == text
    for rows in ("_succ_d", "_succ_l"):
        assert (len(set(map(id, getattr(out_of_order, rows))))
                == len(set(map(id, getattr(in_order, rows)))))
    assert len(set(map(id, in_order._succ_l))) < len(model.worlds)


def reference_save_model(model):
    """The writer as one line per pair and atom, each with its own line
    end, with rows decoded digit by digit."""
    worlds = model.worlds
    lines = [] if model.frame_class is None else [f"class {model.frame_class}"]
    if model.designated is not None:
        lines.append(f"designated {model.designated}")
    lines += [f"world {w}" for w in worlds]
    for head, rows in (("d", model._succ_d), ("l", model._succ_l)):
        lines += [f"{head} {worlds[i]} {worlds[j]}"
                  for i, row in enumerate(rows) for j in decoded(row)]
    for atom_id, mask in sorted(model._atom_masks.items()):
        lines.append(" ".join(["val", str(atom_id)]
                              + [worlds[j] for j in decoded(mask)]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("seed", range(2))
def test_saved_text_is_one_line_per_pair(seed):
    rng = random.Random(seed)
    for n in SCAN_SIZES + [rng.randint(1, 1100)]:
        worlds = [f"w{i:04d}" for i in range(n)]
        model = BimodalModel.from_rows(
            worlds, scan_rows(rng, n), scan_rows(rng, n),
            {0: rng.getrandbits(n), 2: 0, 5: 1 << n - 1},
            frame_class=rng.choice((None, "cross-axiom")),
            designated=rng.choice((None, worlds[-1])))
        text = save_model(model)
        assert text == reference_save_model(model)
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert save_model(load_model(text)) == text
    assert save_model(BimodalModel([], [], [], {})) == "\n"


@pytest.mark.parametrize("text", [
    "world 1\nworld 2\nl 1 1\nval 0 1\nl 2 2\n",
    "world a\nworld b\nd a a\nd b b\nd a b\n",
    "world a\nworld d\nd a a d\nd d\n",
    "world a\nworld world\nworld a world\nworld\n",
    "class cross-axiom\nworld a\nclass s4s5-product\nl a a\n",
    "world a\nl a a\nval 0 a\nval 0\n",
    "world a\nd a  a\nl a a \n",
    "\n",
    "",
], ids=["l-after-val", "d-unsorted", "line-end-moved", "world-line-end-moved",
        "class-after-world", "val-repeated", "extra-spaces", "blank", "empty"])
def test_files_near_the_writers_layout_read_alike(text):
    assert outcome(load_model, text) == outcome(reference_load_model, text)


@pytest.mark.parametrize("first, second", [("a", "b"), ("b", "a")])
def test_val_lines_of_one_atom_are_ored_in_either_order(first, second):
    text = f"world a\nworld b\nl a a\nl b b\nval 0 {first}\nval 0 {second}\n"
    for read in (load_model, reference_load_model):
        assert dict(read(text).valuation) == {0: frozenset({"a", "b"})}


@pytest.mark.parametrize("text", [
    "world a\nworld b\nval 0 a zz\nval 0 b\n",
    "world a\nworld b\nval 0 b\nval 0 a zz\n",
    "world a\nworld b\nval 0 b zz\nval 0 a yy\n",
], ids=["unknown-first", "unknown-last", "unknown-in-both"])
def test_unknown_world_in_any_val_line_of_an_atom_is_named(text):
    """A later val line of the same atom does not hide an unknown world
    in an earlier one; the least unknown world of all of them is named."""
    for read in (load_model, reference_load_model):
        with pytest.raises(ValueError) as err:
            read(text)
        name = "yy" if "yy" in text else "zz"
        assert str(err.value) == (
            f"valuation of atom 0 mentions unknown world {name!r}")


@pytest.mark.parametrize("text, line", [
    ("class cross-axiom\nworld a\nclass cross-axiom\nl a a\n", 3),
    ("world a\ndesignated a\nl a a\ndesignated a\n", 4),
], ids=["class", "designated"])
def test_second_header_line_is_a_bad_line(text, line):
    raw = text.splitlines()[line - 1]
    for read in (load_model, reference_load_model):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == f"bad model line {line}: {raw!r}"


def test_non_integer_atom_id_is_a_bad_line():
    text = "world w\nl w w\nval abc w\n"
    for read in (load_model, reference_load_model):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == "bad model line 3: 'val abc w'"


@pytest.mark.parametrize("atom_id", ["-1", "+1", "1_0", "\u0661"],
                         ids=["minus", "plus", "underscore", "arabic-indic"])
@pytest.mark.parametrize("layout", ["blocks", "lines"])
def test_atom_id_outside_decimal_digits_is_a_bad_line(atom_id, layout):
    """int() takes these spellings, but no formula names atom -1, and the
    others would save back as another text."""
    text = f"world w\nl w w\nval {atom_id} w\n"
    if layout == "lines":
        text = "# c\n" + text
    line = 3 if layout == "blocks" else 4
    for read in (load_model, reference_load_model):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == f"bad model line {line}: 'val {atom_id} w'"


@pytest.mark.parametrize("layout", ["blocks", "lines"])
def test_atom_id_is_saved_in_the_writers_spelling(layout):
    """The readers take what a hand-written file may vary (comments, blank
    lines, line order, leading zeros in an atom id) and save the model in
    the writer's layout: only a file in that layout comes back byte for
    byte."""
    text = "world w\nl w w\nval 007 w\n"
    if layout == "lines":
        text = "# c\n" + text
    for read in (load_model, reference_load_model):
        assert dict(read(text).valuation) == {7: frozenset({"w"})}
    saved = save_model(load_model(text))
    assert saved == "world w\nl w w\nval 7 w\n"
    assert save_model(load_model(saved)) == saved


# A file in the writer's layout, the same lines in another layout, and a
# valuation set, each naming four unknown worlds.
UNKNOWN_WORLDS = """
from bimodal.semantics import BimodalModel, load_model
for make in (lambda: load_model("world a\\nl a a\\nval 0 zz yy xx ww\\n"),
             lambda: load_model("# c\\nworld a\\nval 0 zz yy xx ww\\n"),
             lambda: BimodalModel(["a"], [], [], {0: {"zz", "yy", "xx", "ww"}})):
    try:
        make()
    except ValueError as err:
        print(err)
"""


@pytest.mark.parametrize("seed", ["2", "4"])
def test_unknown_world_error_does_not_depend_on_the_hash_seed(seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
    result = subprocess.run([sys.executable, "-c", UNKNOWN_WORLDS],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.stdout.splitlines() == [
        "valuation of atom 0 mentions unknown world 'ww'"] * 3


# Relation pairs given as a set naming three unknown worlds.
UNKNOWN_PAIRS = """
from bimodal.semantics import BimodalModel
try:
    BimodalModel(["a"], {("a", "zz"), ("a", "yy"), ("a", "xx")}, [], {})
except ValueError as err:
    print(err)
"""


@pytest.mark.parametrize("seed", ["1", "2", "3", "4"])
def test_unknown_pair_error_does_not_depend_on_the_hash_seed(seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
    result = subprocess.run([sys.executable, "-c", UNKNOWN_PAIRS],
                            capture_output=True, text=True, env=env,
                            timeout=60)
    assert result.stdout.splitlines() == [
        "relation pair ('a', 'xx') mentions unknown world"]


@pytest.mark.parametrize("name", ["a b", "", "a\tb", " a", "a\n"],
                         ids=["space", "empty", "tab", "leading-space", "line-end"])
def test_world_names_a_file_cannot_carry_are_rejected(name):
    """A file separates names by whitespace, so a model whose world name is
    empty or holds whitespace would save to a file that no reader takes
    back; both constructors reject it and name the world."""
    message = f"world name {name!r} is empty or holds whitespace"
    with pytest.raises(ValueError) as err:
        BimodalModel([name, "b"], [(name, name)], [(name, name)], {})
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        BimodalModel.from_rows(sorted([name, "b"]), [1, 2], [1, 2], {})
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "class cross-axoim\nworld a\nl a a\n",
    "world a\nl a a\nclass cross-axoim\n",
], ids=["blocks", "lines"])
def test_unknown_frame_class_is_rejected(text):
    """A misspelt class line is an error, not a class written back; both
    readers give the same one."""
    for read in (load_model, reference_load_model):
        with pytest.raises(ValueError) as err:
            read(text)
        assert str(err.value) == "unknown frame class 'cross-axoim'"
    with pytest.raises(ValueError, match="unknown frame class 'k4'"):
        BimodalModel.from_rows(["a"], [1], [1], {}, frame_class="k4")
