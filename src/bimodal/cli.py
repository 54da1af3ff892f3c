"""Command-line surface: generation, model building, checking, extraction,
translation, bounded satisfiability, and an end-to-end verification
pipeline.  Every subcommand is a thin composition of library calls and
prints a plain `key: value` report.

Exit codes: 0 when all checks pass; 1 when a check fails or an input is
wrong (a missing or malformed file, a missing or unknown point), with
the error on stderr; 2 on usage errors.
"""

import argparse
import sys

from . import atm as atm_mod, formula as fm, red_s4s5, red_ssl, satbound
from . import translations
from .reduction import (ExtractionError, ReductionParams, extract_counter,
                        gen_counter, gen_formula, grow_tree, size_parameter)
from .semantics import FRAME_CLASSES, load_model, save_model, validate

# The reductions by logic name: `--logic` choices, `gen` kinds
# (counter-<logic>, f-<logic>) and the pipeline's logics come from here.
REDUCTIONS = {"ssl": red_ssl.SSL, "s4s5": red_s4s5.S4S5}
GEN_KINDS = [f"{family}-{logic}" for family in ("counter", "f")
             for logic in REDUCTIONS]
# The translations by kind: each one's function and its extra report line.
TRANSLATIONS = {
    "ssl-s4s5": (translations.t_ssl_to_s4s5,
                 lambda r: f"main-atom: {r.main_atom}"),
    "s4s5-k4s5": (translations.t_s4s5_to_k4s5,
                  lambda r: f"box-subformulas: {len(r.box_subformulas)}")}


class CheckFailure(Exception):
    """A semantic check failed; the report already explains it."""


class UsageError(Exception):
    """The arguments do not make up a command: a required option is
    missing or malformed."""


def _read(path):
    with open(path, "r", encoding="utf-8") as h:
        return h.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as h:
        h.write(text)


def _counter_width(args, command):
    """--n, which command requires, checked to be at least 1."""
    if args.n is None:
        raise UsageError(f"{command} requires --n")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    return args.n


def _load_params(args):
    """The reduction's parameters from --atm, --w and --poly, the one place
    that requires them; the polynomial is checked before the machine."""
    if not (args.atm and args.w is not None and args.poly):
        raise UsageError("the reduction requires --atm, --w and --poly")
    try:
        poly = [int(c) for c in args.poly.split(",")]
    except ValueError:
        raise UsageError(f"bad polynomial {args.poly!r}: expected c0,c1,...")
    try:
        size_parameter(poly, len(args.w))
    except ValueError as err:
        raise UsageError(str(err)) from None
    return ReductionParams(atm_mod.parse_atm(_read(args.atm)), poly, args.w)


def _conclude(report, ok, failure=None):
    """Print the report and its result line; a failed check exits 1 with
    the failure message."""
    report.append(f"result: {'pass' if ok else 'fail'}")
    for line in report:
        print(line)
    if not ok:
        raise CheckFailure(failure)


def _emit_formula(report, f, out):
    """Write the text of f to the file `out`, or else into the report."""
    text = fm.render(f)
    if out:
        _write(out, text + "\n")
        report.append(f"formula-file: {out}")
    else:
        report.append(f"formula: {text}")


def _emit(report, out, kind, text):
    """Write text() to the file `out`, if one is given, and name the file
    in the report."""
    if out:
        _write(out, text())
        report.append(f"{kind}-file: {out}")


def _gen(args):
    family, logic = args.kind.split("-", 1)
    red = REDUCTIONS[logic]
    if family == "counter":
        f, cat = gen_counter(red, _counter_width(args, "gen counter-*"))
    else:
        f, cat = gen_formula(red, _load_params(args))
    report = [f"command: gen {args.kind}", f"size: {fm.rendered_size(f)}",
              f"atoms: {len(cat)}"]
    _emit_formula(report, f, args.out)
    _emit(report, args.catalog, "catalog", cat.dump)
    _conclude(report, True)


def _build(args):
    params = _load_params(args)
    time_bound = 2 ** params.N - 1
    tree = atm_mod.find_accepting_tree(params.atm, params.w, time_bound)
    if tree is None:
        raise CheckFailure(
            f"the machine does not accept {args.w!r} within {time_bound} steps")
    red = REDUCTIONS[args.logic]
    model, point = red.build_model(params, tree)
    f, _ = gen_formula(red, params)
    holds = model.eval(point, f)
    report = [f"command: build model {args.logic}",
              f"worlds: {len(model.worlds)}",
              f"designated: {point}",
              f"formula-holds: {'pass' if holds else 'fail'}"]
    _emit(report, args.out, "model", lambda: save_model(model))
    _emit(report, args.tree_out, "tree", lambda: atm_mod.save_tree(tree))
    _conclude(report, holds, "generated formula is false on its witness model")


def _model_and_point(args):
    """The model file and the point to work at: --point, else the model's
    designated world."""
    model = load_model(_read(args.model))
    point = args.point if args.point is not None else model.designated
    if point is None:
        raise CheckFailure("no --point given and the model has no designated world")
    if point not in model.index:
        raise CheckFailure(f"unknown world {point!r}")
    return model, point


def _check(args):
    model, point = _model_and_point(args)
    f = fm.parse(_read(args.formula))
    report = [f"command: check"]
    if args.frame_class:
        vr = validate(model, args.frame_class)
        report.extend(vr.lines()[:-1])
        if not vr.ok:
            _conclude(report, False, "frame validation failed")
    holds = model.eval(point, f)
    report.append(f"point: {point}")
    report.append(f"holds: {'pass' if holds else 'fail'}")
    _conclude(report, holds, "formula is false at the given point")


def _extract(args):
    # usage errors come before the model file is read
    if args.kind == "trace":
        n = _counter_width(args, "extract trace")
    else:
        params = _load_params(args)
    model, point = _model_and_point(args)
    red = REDUCTIONS[args.logic]
    if args.kind == "trace":
        p_points, p_prime = extract_counter(red, model, point, n)
        report = [f"command: extract trace {args.logic}",
                  f"steps: {len(p_points)}"]
        for i, p in enumerate(p_points):
            report.append(f"p{i}: {p}")
        for i, p in enumerate(p_prime):
            report.append(f"p'{i}: {p}")
        _conclude(report, True)
    else:
        tree, _pi = grow_tree(red, model, point, params)
        report = [f"command: extract tree {args.logic}",
                  f"nodes: {len(tree.configs)}",
                  f"height: {tree.height()}"]
        _emit(report, args.out, "tree", lambda: atm_mod.save_tree(tree))
        _conclude(report, True)


def _translate(args):
    translate, extra = TRANSLATIONS[args.kind]
    result = translate(fm.parse(_read(args.formula)))
    report = [f"command: translate {args.kind}",
              f"size: {fm.rendered_size(result.formula)}", extra(result)]
    _emit_formula(report, result.formula, args.out)
    _conclude(report, True)


def _lift(args):
    model, point = _model_and_point(args)
    f = fm.parse(_read(args.formula))
    result = translations.t_ssl_to_s4s5(f)
    lifted, point = translations.lift_model_ssl_to_s4s5(model, point,
                                                        result.main_atom)
    holds = lifted.eval(point, result.formula)
    report = [f"command: lift", f"worlds: {len(lifted.worlds)}",
              f"translated-holds: {'pass' if holds else 'fail'}"]
    _emit(report, args.out, "model", lambda: save_model(lifted))
    _conclude(report, holds, "translated formula is false on the lifted model")


def _restrict(args):
    model, point = _model_and_point(args)
    f = fm.parse(_read(args.formula))
    restricted, point = translations.restrict_model_s4s5_to_ssl(model, point, f)
    holds = restricted.eval(point, f)
    report = [f"command: restrict", f"worlds: {len(restricted.worlds)}",
              f"formula-holds: {'pass' if holds else 'fail'}"]
    _emit(report, args.out, "model", lambda: save_model(restricted))
    _conclude(report, holds, "formula is false on the restricted model")


def _sat(args):
    if args.bound < 1:
        raise UsageError("--bound must be at least 1")
    if args.bound > satbound.MAX_POINTS:
        raise UsageError(f"--bound must be at most {satbound.MAX_POINTS}")
    if args.max_atoms < 1:
        raise UsageError("--max-atoms must be at least 1")
    f = fm.parse(_read(args.formula))
    verdict = satbound.bounded_sat(f, args.frame_class,
                                   max_points=args.bound,
                                   max_atoms=args.max_atoms)
    report = [f"command: sat", f"class: {args.frame_class}"]
    if verdict.satisfiable:
        report.append("verdict: sat")
        report.append(f"worlds: {len(verdict.model.worlds)}")
        report.append(f"point: {verdict.point}")
        _emit(report, args.out, "model", lambda: save_model(verdict.model))
    else:
        report.append("verdict: unsat-within-bound")
        report.append(f"max-points: {verdict.max_points}")
    report.append(f"frames: {verdict.frames}")
    report.append(f"candidates: {verdict.candidates}")
    _conclude(report, True)


def _atm_run(args):
    if args.fuel < 0:
        raise UsageError("--fuel must be at least 0")
    machine = atm_mod.parse_atm(_read(args.atm))
    tree = atm_mod.find_accepting_tree(machine, args.w, args.fuel)
    report = [f"command: atm run", f"input: {args.w}", f"fuel: {args.fuel}"]
    if tree is None:
        report.append("accepts: fail")
        _conclude(report, False, "the machine does not accept within the fuel bound")
    report.append("accepts: pass")
    report.append(f"tree-nodes: {len(tree.configs)}")
    report.append(f"tree-height: {tree.height()}")
    _emit(report, args.out, "tree", lambda: atm_mod.save_tree(tree))
    _conclude(report, True)


def _verify(args):
    params = _load_params(args)
    report = [f"command: verify pipeline", f"input: {args.w}",
              f"window-bits: {params.N}"]
    checks = []

    def check(name, ok):
        checks.append(ok)
        report.append(f"{name}: {'pass' if ok else 'fail'}")

    time_bound = 2 ** params.N - 1
    tree = atm_mod.find_accepting_tree(params.atm, params.w, time_bound)
    check("accepting-tree-found", tree is not None)
    if tree is None:
        _conclude(report, False, "no accepting tree")

    trees = {}
    for logic, red in REDUCTIONS.items():
        f, _ = gen_formula(red, params)
        model, point = red.build_model(params, tree)
        check(f"{logic}-frame-valid", validate(model, red.frame_class).ok)
        check(f"{logic}-formula-holds", model.eval(point, f))
        try:
            extracted, _pi = grow_tree(red, model, point, params)
        except ExtractionError as err:
            report.append(f"{logic}-extraction-error: {err}")
            check(f"{logic}-extraction", False)
            continue
        check(f"{logic}-extraction", True)
        check(f"{logic}-tree-matches",
              atm_mod.trees_label_equal(extracted, tree))
        trees[logic] = extracted

    if len(trees) == len(REDUCTIONS):
        first, *others = trees.values()
        check("extractions-agree",
              all(atm_mod.trees_label_equal(first, t) for t in others))

    _conclude(report, all(checks), "pipeline verification failed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bimodal",
        description="Bimodal-logic toolkit: formula generators, model "
                    "builders, checkers, extractors, translations, and a "
                    "bounded satisfiability oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    # one parent parser per option group that several subcommands share;
    # the machine options are checked by `_load_params`, not by argparse
    machine, located, formula, out, logic, width = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    machine.add_argument("--atm")
    machine.add_argument("--w")
    machine.add_argument("--poly")
    located.add_argument("--model", required=True)
    located.add_argument("--point")
    formula.add_argument("--formula", required=True)
    out.add_argument("--out")
    logic.add_argument("--logic", choices=list(REDUCTIONS), required=True)
    width.add_argument("--n", type=int)

    def command(name, func, help, *parents, **positionals):
        p = sub.add_parser(name, help=help, parents=parents)
        for dest, choices in positionals.items():
            p.add_argument(dest, choices=choices)
        p.set_defaults(func=func)
        return p

    command("gen", _gen, "generate a formula", width, machine, out,
            kind=GEN_KINDS).add_argument("--catalog")
    command("build", _build, "build a witness model", logic, machine, out,
            what=["model"]).add_argument("--tree-out")
    command("check", _check, "evaluate a formula on a model", located,
            formula).add_argument("--class", dest="frame_class",
                                  choices=FRAME_CLASSES)
    command("extract", _extract, "extract a counter trace or tree", logic,
            located, width, machine, out, kind=["trace", "tree"])
    command("translate", _translate, "translate a formula", formula, out,
            kind=list(TRANSLATIONS))
    command("lift", _lift, "lift a cross-axiom model to a commutator model",
            located, formula, out)
    command("restrict", _restrict, "restrict a commutator model back",
            located, formula, out)
    p = command("sat", _sat, "bounded satisfiability search", formula, out)
    p.add_argument("--class", dest="frame_class", choices=FRAME_CLASSES,
                   required=True)
    p.add_argument("--bound", type=int, default=satbound.DEFAULT_MAX_POINTS)
    p.add_argument("--max-atoms", type=int, default=satbound.DEFAULT_MAX_ATOMS)
    p = command("atm", _atm_run, "run a machine", out, what=["run"])
    p.add_argument("--atm", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--fuel", type=int, required=True)
    command("verify", _verify, "end-to-end verification", machine,
            what=["pipeline"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    # ParseError, AtmError and UnicodeDecodeError are ValueErrors and
    # CatalogError is a KeyError
    except (UsageError, CheckFailure, ExtractionError, satbound.ResourceCapError,
            ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
