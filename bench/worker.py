"""Benchmark worker: sets up one workload and measures it, in one process.

`run.py` starts this script in a fresh interpreter for every workload run
and for every set-up probe, so that set-up time, peak memory and the
oracle's module-level frame caches belong to one workload only.

    python3 bench/worker.py --workload encode --seed 1 --seconds 30 \
        --trace 0 --t0 <parent perf_counter> [--setup-only]

It prints one JSON object on its last line of standard output.  Set-up
time is measured from the parent's `--t0` stamp, taken just before the
interpreter was started (`perf_counter` reads the system-wide monotonic
clock on Linux, so both processes share it); it therefore includes
starting the interpreter and importing `bimodal`.
"""

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
from bimodal import atm, red_s4s5, red_ssl, satbound, translations  # noqa: E402
from bimodal import formula as fm, semantics as sem  # noqa: E402

MACHINE_FILES = {
    "m1": ROOT / "fixtures" / "m1.atm",
    "bounce": BENCH / "machines" / "bounce.atm",
    "fan": BENCH / "machines" / "fan.atm",
}

# Stated accepting-tree sizes of the fixtures, checked at set-up so that a
# typo in a machine file cannot shrink a workload silently.
FIXTURE_SIZES = (("m1", "ab", 4), ("bounce", "abababab", 20), ("fan", "bbbb", 48))
FIXTURE_FUEL = 63

# encode: (machine, counter width N, word length n); the seed draws the
# word's letters, which leave the cost unchanged.  Poly p(x) = (N - n) + x.
ENCODE_TEMPLATES = (("m1", 4, 2), ("m1", 5, 2), ("m1", 5, 3), ("bounce", 4, 3),
                    ("bounce", 5, 3))

# branch: fan on "bbb" and on one of two words whose trees differ by one
# node, with poly 0,1 (N = n); then the counter formulas (logic, n).
BRANCH_FAN = ("bbb", ("abbb", "babb"))
BRANCH_COUNTERS = (("ssl", 5), ("s4s5", 4), ("s4s5", 5))

# oracle: a fixed pool of random formulas in the acceptance generator's
# shape (at most 2 atoms, depth <= 3).  The seed picks a satisfiability-
# preserving variant of each (atom renaming, conjunct order) and the query
# order, so every seed asks the same number of sat and unsat questions;
# freely drawn formulas would let one 15-second unsat query decide a run.
ORACLE_POOL_SEED = 20260823
ORACLE_POOL_SIZE = 60

# Verdicts must respect: sat on product => sat on s4s5-commutator => sat
# on k4s5-commutator.
MONOTONE = ((sem.S4S5_PRODUCT, sem.S4S5_COMMUTATOR),
            (sem.S4S5_COMMUTATOR, sem.K4S5_COMMUTATOR))

# Each instance's latency is its mean over the passes, which should be
# spread over the run.
MIN_PASSES = 3


class CheckFailed(Exception):
    """A benchmark check on a program output did not hold."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Tracing: spans recorded around each public library call.

class Context:
    """Calls into the library, with optional spans and counters.

    Untraced, `call` is a plain call.  Traced, every call becomes a span
    (name, start, end, parent span, instance) kept in memory; the parent of
    a library span is the instance span that made it.  Counters are kept
    during the first pass over the instance list only.
    """

    def __init__(self, traced):
        self.traced = traced
        self.counting = False
        self.spans = []
        self.counts = {}
        self.instance = None
        self.instance_span = None

    def call(self, name, fn, *args):
        """fn(*args); `name` may be a function of the result."""
        if not self.traced:
            return fn(*args)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args)
            return result
        finally:
            end = time.perf_counter()
            if callable(name):
                name = name(result)
            self.spans.append((name, start, end, self.instance_span, self.instance))

    def begin(self, index):
        self.instance = index
        self.instance_span = len(self.spans)
        self.spans.append(None)

    def end(self, start, stop):
        self.spans[self.instance_span] = ("instance", start, stop, None, self.instance)
        self.instance = self.instance_span = None

    def count(self, key, n):
        if self.counting:
            self.counts[key] = self.counts.get(key, 0) + n


# ---------------------------------------------------------------------------
# Inputs, drawn from the seed without calling the library.

def expected_tree_nodes(machine, w):
    """Accepting-tree size worked out from each machine's design."""
    if machine == "m1":
        return 4 if w[0] == "a" else 3  # q1 branches only on 'a'
    if machine == "bounce":
        return 2 * len(w) + 4  # a path of height 2n + 3
    # fan: every b doubles the frontier; two start levels, one accept level
    total, width = 2, 1
    for a in w:
        width *= 2 if a == "b" else 1
        total += width
    return total + width


def random_formula(rng, n_atoms=2, depth=3):
    """Tuple tree in the shape of the acceptance suite's generator."""
    if depth == 0 or rng.random() < 0.3:
        return ("x", rng.randrange(n_atoms))
    op = rng.choice(["!", "&", "K", "[]"])
    if op == "&":
        return ("&", random_formula(rng, n_atoms, depth - 1),
                random_formula(rng, n_atoms, depth - 1))
    return (op, random_formula(rng, n_atoms, depth - 1))


def variant(rng, f, rename):
    """Rename atoms and reorder conjuncts: satisfiability is unchanged."""
    if f[0] == "x":
        return ("x", rename[f[1]])
    if f[0] == "&":
        a, b = variant(rng, f[1], rename), variant(rng, f[2], rename)
        return ("&", b, a) if rng.random() < 0.5 else ("&", a, b)
    return (f[0], variant(rng, f[1], rename))


def formula_text(f):
    """Canonical syntax of a tuple tree."""
    if f[0] == "x":
        return "x" + format(f[1], "b")
    if f[0] == "&":
        return f"({formula_text(f[1])} & {formula_text(f[2])})"
    return f[0] + formula_text(f[1])


def oracle_instances(rng):
    groups = {}
    for line in (BENCH / "corpus.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            text, frame_class, answer = line.split("\t")
            groups.setdefault(text, []).append((frame_class, answer == "sat"))
    pool = random.Random(ORACLE_POOL_SEED)
    for _ in range(ORACLE_POOL_SIZE):
        f = random_formula(pool)
        rename = [0, 1] if rng.random() < 0.5 else [1, 0]
        text = formula_text(variant(rng, f, rename))
        groups.setdefault(text, []).extend((c, None) for c in sem.FRAME_CLASSES)
    order = list(groups)
    rng.shuffle(order)
    return [dict(kind="oracle", formula=text, frame_class=frame_class,
                 expected=expected, last=i == len(groups[text]) - 1)
            for text in order
            for i, (frame_class, expected) in enumerate(groups[text])]


def make_instances(workload, rng):
    if workload == "oracle":
        return oracle_instances(rng)
    out = []
    if workload == "encode":
        for machine, N, n in ENCODE_TEMPLATES:
            w = "".join(rng.choice("ab") for _ in range(n))
            out.append(dict(kind="reduction", machine=machine, w=w, poly=[N - n, 1]))
    else:
        for w in (BRANCH_FAN[0], rng.choice(BRANCH_FAN[1])):
            out.append(dict(kind="reduction", machine="fan", w=w, poly=[0, 1]))
        out.extend(dict(kind="counter", logic=logic, n=n) for logic, n in BRANCH_COUNTERS)
    rng.shuffle(out)
    for inst in out:
        if inst["kind"] == "reduction":
            inst["nodes"] = expected_tree_nodes(inst["machine"], inst["w"])
    return out


def describe(inst):
    """A bash command line that replays the instance with the CLI."""
    if inst["kind"] == "reduction":
        atm_path = MACHINE_FILES[inst["machine"]].relative_to(ROOT)
        poly = ",".join(map(str, inst["poly"]))
        return f"bimodal verify pipeline --atm {atm_path} --w {inst['w']} --poly {poly}"
    if inst["kind"] == "counter":
        return f"bimodal gen counter-{inst['logic']} --n {inst['n']}"
    answer = {None: "", True: "  # corpus: sat", False: "  # corpus: unsat"}
    return (f"bimodal sat --class {inst['frame_class']} "
            f"--formula <(echo '{inst['formula']}')" + answer[inst["expected"]])


def setup(workload, seed):
    """Machines, fixture check, instance list and oracle warm-up."""
    if not Path(fm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bimodal was imported from {fm.__file__}, not from src/")
    machines = {name: atm.parse_atm(path.read_text())
                for name, path in MACHINE_FILES.items()}
    for name, w, nodes in FIXTURE_SIZES:
        tree = atm.find_accepting_tree(machines[name], w, FIXTURE_FUEL)
        got = None if tree is None else len(tree.configs)
        if got != nodes or expected_tree_nodes(name, w) != nodes:
            raise SystemExit(f"fixture {name} on {w!r}: accepting tree has {got} "
                             f"nodes, expected {nodes}")
    instances = make_instances(workload, random.Random(seed))
    for inst in instances:
        if inst["kind"] == "reduction":
            inst["params"] = red_ssl.ReductionParams(
                machines[inst["machine"]], inst["poly"], inst["w"])
    start = time.perf_counter()
    contradiction = fm.parse("(x0 & !x0)")
    for frame_class in sem.FRAME_CLASSES:
        if satbound.bounded_sat(contradiction, frame_class).satisfiable:
            raise SystemExit(f"oracle warm-up: contradiction sat on {frame_class}")
    return instances, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Instances: the chains of public calls that the command-line tool composes.

def rendered(ctx, f):
    text = ctx.call("formula.render", fm.render, f)
    ctx.count("formula_bytes", len(text))
    if ctx.traced:
        ctx.count("formula.dag_nodes", len(fm.subformulas(f)))
    return text


def validated(ctx, model, frame_class, what):
    report = ctx.call("semantics.validate", sem.validate, model, frame_class)
    check(report.ok, f"{what} fails {frame_class}: {[c.name for c in report.failures()]}")
    ctx.count("semantics.worlds", len(model.worlds))
    ctx.count("semantics.pairs", len(model.rel_d) + len(model.rel_l))


def holds(ctx, model, point, f, what):
    check(ctx.call("semantics.eval", model.eval, point, f), what)


def translate_ssl(ctx, f, model, point):
    result = ctx.call("translations.translate", translations.t_ssl_to_s4s5, f)
    rendered(ctx, result.formula)
    lifted, lp = ctx.call("translations.transform", translations.lift_model_ssl_to_s4s5,
                          model, point, result.main_atom)
    validated(ctx, lifted, sem.S4S5_COMMUTATOR, "lifted model")
    holds(ctx, lifted, lp, result.formula, "translated formula false on the lifted model")
    back, bp = ctx.call("translations.transform", translations.restrict_model_s4s5_to_ssl,
                        lifted, lp, f)
    holds(ctx, back, bp, f, "formula false on the restricted model")


def translate_s4s5(ctx, f, model, point):
    result = ctx.call("translations.translate", translations.t_s4s5_to_k4s5, f)
    rendered(ctx, result.formula)
    holds(ctx, model, point, result.formula, "k4s5 translation false on the witness")


LOGICS = {
    "ssl": SimpleNamespace(
        name="ssl", span="red_ssl", frame_class=sem.CROSS_AXIOM, translate=translate_ssl,
        gen_f=red_ssl.gen_f_ssl, build_f=red_ssl.build_f_ssl_model,
        extract_f=red_ssl.extract_accepting_tree_ssl,
        gen_counter=red_ssl.gen_counter_ssl, build_counter=red_ssl.build_counter_ssl_model,
        extract_counter=red_ssl.extract_counter_trace, shared_var=fm.shared_var_ssl),
    "s4s5": SimpleNamespace(
        name="s4s5", span="red_s4s5", frame_class=sem.S4S5_PRODUCT,
        translate=translate_s4s5,
        gen_f=red_s4s5.gen_f_s4s5, build_f=red_s4s5.build_f_s4s5_model,
        extract_f=red_s4s5.extract_accepting_tree_s4s5,
        gen_counter=red_s4s5.gen_counter_s4s5,
        build_counter=red_s4s5.build_counter_s4s5_model,
        extract_counter=red_s4s5.extract_counter_trace_s4s5,
        shared_var=fm.shared_var_s4s5),
}


def witness_chain(ctx, logic, f, model, point):
    """render, parse, check, save, load, validate, check again."""
    text = rendered(ctx, f)
    ctx.count("formula.parsed_bytes", len(text))
    check(ctx.call("formula.parse", fm.parse, text) is f, "parse(render(f)) is not f")
    holds(ctx, model, point, f, f"{logic.name} formula false on its witness model")
    saved = ctx.call("semantics.save", sem.save_model, model)
    loaded = ctx.call("semantics.load", sem.load_model, saved)
    validated(ctx, loaded, logic.frame_class, f"reloaded {logic.name} model")
    holds(ctx, loaded, point, f, f"{logic.name} formula false on the reloaded model")
    return loaded


def run_reduction(ctx, inst, _verdicts):
    params = inst["params"]
    tree = ctx.call("atm.search", atm.find_accepting_tree, params.atm, params.w,
                    2 ** params.N - 1)
    check(tree is not None, "no accepting tree within the time bound")
    ctx.count("atm.tree_nodes", len(tree.configs))
    check(len(tree.configs) == inst["nodes"],
          f"accepting tree has {len(tree.configs)} nodes, expected {inst['nodes']}")
    extracted = []
    for logic in LOGICS.values():
        f, _cat = ctx.call(logic.span + ".gen", logic.gen_f, params)
        model, point = ctx.call(logic.span + ".build", logic.build_f, params, tree)
        loaded = witness_chain(ctx, logic, f, model, point)
        got, _pi = ctx.call(logic.span + ".extract", logic.extract_f, loaded, point, params)
        check(atm.trees_label_equal(got, tree),
              f"{logic.name} extraction differs from the accepting tree")
        extracted.append(got)
        logic.translate(ctx, f, loaded, point)
    check(atm.trees_label_equal(*extracted), "ssl and s4s5 extractions differ")


def run_counter(ctx, inst, _verdicts):
    logic, n = LOGICS[inst["logic"]], inst["n"]
    f, cat = ctx.call(logic.span + ".gen", logic.gen_counter, n)
    model, p0 = ctx.call(logic.span + ".build", logic.build_counter, n)
    loaded = witness_chain(ctx, logic, f, model, p0)
    points, _ = ctx.call(logic.span + ".extract", logic.extract_counter, loaded, p0, n)
    check(len(points) == 2 ** n, f"trace has {len(points)} points, expected {2 ** n}")
    values = [sum(1 << k for k in range(n) if loaded.eval(p, logic.shared_var(k, cat)))
              for p in points]
    check(values == list(range(2 ** n)), f"trace carries the values {values}")
    logic.translate(ctx, f, loaded, p0)


def run_oracle(ctx, inst, verdicts):
    text, frame_class = inst["formula"], inst["frame_class"]
    ctx.count("formula_bytes", len(text))
    ctx.count("formula.parsed_bytes", len(text))
    f = ctx.call("formula.parse", fm.parse, text)
    if ctx.traced:
        ctx.count("formula.dag_nodes", len(fm.subformulas(f)))
    again = ctx.call("formula.parse", fm.parse, ctx.call("formula.render", fm.render, f))
    check(again is f, "parse(render(f)) is not f")
    verdict = ctx.call(lambda v: "satbound.sat" if v.satisfiable else "satbound.unsat",
                       satbound.bounded_sat, f, frame_class)
    ctx.count("satbound.queries", 1)
    ctx.count("satbound.sat", int(verdict.satisfiable))
    mine = verdicts.setdefault(text, {})
    mine[frame_class] = verdict.satisfiable
    if inst["expected"] is not None:
        check(verdict.satisfiable == inst["expected"],
              f"verdict {verdict.satisfiable}, corpus answer {inst['expected']}")
    if verdict.satisfiable:
        validated(ctx, verdict.model, frame_class, "oracle model")
        holds(ctx, verdict.model, verdict.point, f, "formula false on the oracle model")
    if inst["last"]:
        for stronger, weaker in MONOTONE:
            check(not (mine.get(stronger) and mine.get(weaker) is False),
                  f"sat on {stronger} but unsat on {weaker}")


RUNNERS = {"reduction": run_reduction, "counter": run_counter, "oracle": run_oracle}


# ---------------------------------------------------------------------------
# Measurement.

def run_pass(ctx, instances, latencies, failures):
    verdicts = {}
    for index, inst in enumerate(instances):
        if ctx.traced:
            ctx.begin(index)
        start = time.perf_counter()
        try:
            RUNNERS[inst["kind"]](ctx, inst, verdicts)
        except Exception as err:  # a failed operation is counted, never fatal
            failures.append(f"instance {index}: {type(err).__name__}: {err}"[:300])
        stop = time.perf_counter()
        if ctx.traced:
            ctx.end(start, stop)
        latencies.append(stop - start)


def measure(ctx, instances, budget, min_passes):
    """Whole passes over the instance list: at least min_passes, then more
    while the next one fits the budget."""
    latencies, failures, pass_seconds = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        ctx.counting = not pass_seconds
        run_pass(ctx, instances, latencies, failures)
        ctx.counting = False
        now = time.perf_counter()
        pass_seconds.append(now - pass_start)
        if len(pass_seconds) >= min_passes and now - start + pass_seconds[-1] > budget:
            break
    return dict(latencies=latencies, failures=failures, pass_seconds=pass_seconds,
                seconds=time.perf_counter() - start)


def self_times(spans):
    """Self time per span name: duration minus the children's durations.
    The instance spans' self time is the benchmark's own."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _inst in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _parent, _inst) in enumerate(spans):
        key = "bench.self" if name == "instance" else name
        out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("encode", "branch", "oracle"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    instances, warmup_s = setup(args.workload, args.seed)
    out = dict(setup_s=time.perf_counter() - args.t0, warmup_s=warmup_s)
    if args.setup_only:
        print(json.dumps(out))
        return
    out["instances"] = [describe(inst) for inst in instances]
    if args.trace:
        out["untraced"] = measure(Context(traced=False), instances, args.seconds / 2, 1)
        ctx = Context(traced=True)
        out["traced"] = measure(ctx, instances, 0, 1)
        out["self_s"] = self_times(ctx.spans)
        out["instance_s"] = sum(s[2] - s[1] for s in ctx.spans if s[0] == "instance")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "instance"], "spans": ctx.spans}))
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        ctx = Context(traced=False)
        out["untraced"] = measure(ctx, instances, args.seconds, MIN_PASSES)
    out["counts"] = ctx.counts
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
