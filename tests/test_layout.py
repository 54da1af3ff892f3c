"""Package layout: the library imports nothing but the standard library
and itself, so it runs with no third-party package installed, builds
every model through one rows constructor, builds each logic's witnesses
in one place, keeps the binary counter in the shared engine, builds
products only from factor rows, reads model files through one reader
and checks frames in one place, keeps no product flag, builds each
connective through one constructor, walks formulas through one
postorder, reads bit positions and []-images through `relations`, steps
accepting trees by one rule, prints every pass/fail check through one
report class and uses every name it imports; and the benchmark worker
still finds every library function it calls by name."""

import ast
import importlib.util
import pathlib
import sys
import tokenize

import pytest

from bimodal import formula as fm, relations, satbound, semantics

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bimodal"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in a module (relative
    imports stay inside the package)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_bimodal(path):
    foreign = sorted({name for name in imported_roots(path)
                      if name != "bimodal" and name not in sys.stdlib_module_names})
    assert foreign == []


def calls_to(path, callee):
    """Line numbers of the calls in a module to a function or method
    named callee."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name == callee:
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_models_are_built_from_rows(path):
    """Inside the package a model is built only by
    `BimodalModel.from_rows`; the pairs constructor is an entry for
    callers outside it, so no pair path creeps back in."""
    assert list(calls_to(path, "BimodalModel")) == []


@pytest.mark.parametrize("module, constructor", [("red_ssl.py", "from_rows"),
                                                 ("red_s4s5.py", "from_rows")])
def test_one_witness_builder_per_logic(module, constructor):
    """Each logic builds its counter and machine witnesses through one
    builder, so its model constructor is called in exactly one place."""
    assert len(list(calls_to(PACKAGE / module, constructor))) == 1


@pytest.mark.parametrize("module", ["red_ssl.py", "red_s4s5.py"])
def test_one_counter_in_the_engine(module):
    """The binary counter's catalog, formula and staircase live in
    `reduction`; a logic module only fills in its counter spec, so no
    second counter creeps back in."""
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert not any("counter_catalog" in name or "counter_vectors" in name
                   for name in defined)
    for callee in ("VariableCatalog", "counter_steps", "_staircase"):
        assert list(calls_to(path, callee)) == []

def test_one_product_path():
    """Products are built from factor rows by `product_rows`; no product
    constructor from pairs, with its own factor checks, creeps back in."""
    assert not hasattr(semantics, "product_model")
    assert not hasattr(relations, "first_failure")


def test_one_model_reader():
    """`load_model` reads every model file in one pass; no second reader,
    for the writer's layout or for any other, creeps back in."""
    for name in ("_read_lines", "_read_blocks", "_block_rows", "_world_column"):
        assert not hasattr(semantics, name), name


def test_one_report_class():
    """Frame validation, tree validation and the morphism check share one
    `Report`; no second report format creeps back in."""
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and node.name in ("Report", "PropertyCheck", "ValidationReport")]
    assert defined == [("relations.py", "Report")]


@pytest.mark.parametrize("module", ["relations.py", "translations.py"])
def test_formula_walks_go_through_postorder(module):
    """The evaluator and the relativizer visit subformulas in
    `formula.postorder`; no second walk over formula nodes creeps back
    in."""
    assert list(calls_to(PACKAGE / module, "postorder"))


def test_one_constructor_per_connective():
    """Each connective has one constructor, which checks the operands of a
    node when it first builds it, and the parser builds through those; no
    second, unchecked builder creeps back in."""
    tree = ast.parse((PACKAGE / "formula.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"_not", "_and", "_k", "_box", "_or", "_implies",
                               "_iff", "_l", "_diamond"})
    # one intern table per connective: no shared table or node builder
    assert not hasattr(fm, "_table") and not hasattr(fm, "_node")
    assert fm._PREFIX_BUILDERS == {"!": fm.Not, "K": fm.K, "[]": fm.Box,
                                   "L": fm.L, "<>": fm.Diamond}
    assert fm._BINOP_BUILDERS == {"&": fm.And, "|": fm.Or, "->": fm.Implies,
                                  "<->": fm.Iff}


@pytest.mark.parametrize("module, name", [
    (fm, "ones"), (relations, "_lowest"), (satbound, "_transitive_relations"),
    (satbound, "_preorders"), (satbound, "_frame_groups"), (satbound, "_search"),
    (semantics, "induced_cloud_relation"), (semantics, "cloud_steps")])
def test_deleted_names_stay_deleted(module, name):
    """Bit positions are read through `relations.ones`, `bits` and
    `lowest`; the oracle reads its frame lists through `_relation_lists`
    and `_frames` and searches in `bounded_sat`; a cloud is the K-row of
    its points, and the []-image of a set of points is `relations.image`.
    No second name for any of them comes back."""
    assert not hasattr(module, name)


def test_box_cache_entry_is_the_row_groups():
    """A one-valuation box kind caches its relation's rows grouped by value
    and nothing more: no per-miss-set memo comes back."""
    cache = {}
    relations.eval_masks(fm.Box(fm.Atom(0)), [0b011, 0b011, 0b100], [], {0: 1},
                         3, cache)
    assert list(cache[fm.BOXMOD]) == [(0b011, 0b011), (0b100, 0b100)]


def functions_calling(path, callee):
    """Names of the functions in a module whose bodies call callee."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and callee in (getattr(call.func, "id", None),
                                   getattr(call.func, "attr", None))
                    for call in ast.walk(node))}


def test_one_image_walk():
    """Every union of the rows of a set of points is `relations.image`, and
    the lift reads clouds as K-rows, with no second partition."""
    assert functions_calling(PACKAGE / "reduction.py", "image") == {
        "_reachable_restriction", "check_morphism"}
    assert functions_calling(PACKAGE / "translations.py", "image") == {
        "lift_model_ssl_to_s4s5", "restrict_model_s4s5_to_ssl",
        "k4_to_s4_model"}
    for callee in ("classes", "cloud_steps"):
        assert not functions_calling(PACKAGE / "translations.py", callee)


def test_one_stepping_rule_for_trees():
    """`grow_tree` drops repeated transitions as `successors` does, keeping
    no set of the configurations it has seen, and `check_morphism` reads
    clouds as K-rows, importing no second partition of the model."""
    module = ast.parse((PACKAGE / "reduction.py").read_text(encoding="utf-8"))
    grow = next(node for node in ast.walk(module)
                if isinstance(node, ast.FunctionDef) and node.name == "grow_tree")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(grow) if isinstance(node, ast.Call)}
    assert called.isdisjoint({"set", "add"})
    imported = {alias.name for node in ast.walk(module)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported.isdisjoint({"_cloud_masks", "cloud_steps"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A module uses each name it imports, apart from the re-exports of an
    import marked `# noqa: F401` and the submodules `__init__` lists in
    `__all__`."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            source = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in source):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_product_flag(path):
    """A product is recognised by its world names; no flag stands in for
    the structural check."""
    with path.open("rb") as handle:
        names = {tok.string for tok in tokenize.tokenize(handle.readline)
                 if tok.type == tokenize.NAME}
    assert "is_product" not in names


def test_bench_worker_finds_its_library_calls():
    """The benchmark worker reads library names at import time; loading it
    fails on a name the package no longer has, and every function its
    per-logic table names must be callable."""
    spec = importlib.util.spec_from_file_location(
        "bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert sorted(worker.LOGICS) == ["s4s5", "ssl"]
    for logic in worker.LOGICS.values():
        functions = {key: value for key, value in vars(logic).items()
                     if key not in ("name", "span", "frame_class")}
        assert len(functions) == 8
        assert all(callable(value) for value in functions.values())
