"""Benchmark of the bimodal toolkit: one workload per invocation.

    python3 bench/run.py --workload encode --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see bench/README.md):

  encode  reduction round trips at counter width 4-5: formula text dominates;
  branch  universally branching runs and counters: models dominate;
  oracle  the bounded satisfiability oracle on the acceptance corpus and on
          seeded random formulas, on all four frame classes.

Each workload runs in a fresh single-threaded worker process as a closed
loop with one client.  Set-up is repeated in separate fresh processes and
its median reported.  With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it runs the instance list untraced and then once
traced, and reports the per-module metrics.  The report lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("encode", "branch", "oracle")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10

SPAN_METRICS = (
    "formula.render", "formula.parse", "red_ssl.gen", "red_s4s5.gen",
    "red_ssl.build", "red_s4s5.build", "red_ssl.extract", "red_s4s5.extract",
    "semantics.validate", "semantics.eval", "semantics.save", "semantics.load",
    "translations.translate", "translations.transform", "satbound.sat",
    "satbound.unsat", "atm.search", "bench.self")
COUNT_METRICS = ("formula.dag_nodes", "semantics.worlds", "semantics.pairs",
                 "satbound.queries", "atm.tree_nodes")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(args, extra, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"worker for {args.workload} did not finish within {timeout} s")
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"worker for {args.workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(out, setup_s):
    """Each instance's latency is its mean over the run's passes.  Other
    tenants of a shared machine speed up or slow down whole stretches of a
    run; a mean weighs those stretches by their length, where a median or
    a minimum jumps between them."""
    run = out["untraced"]
    lat, n = run["latencies"], len(out["instances"])
    passes = len(run["pass_seconds"])
    mean = [statistics.fmean(lat[p * n + i] for p in range(passes)) for i in range(n)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(mean), "s"),
        "throughput_ips": (len(lat) / run["seconds"], "1/s"),
        "formula_bytes": (out["counts"]["formula_bytes"], "bytes"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    notes = [f"passes: {passes} over {run['seconds']:.2f} s, {n} instances each"]
    if len(lat) >= 2 * TAIL_BEYOND:
        tail_s, pct = tail(lat)
        notes.append(f"latency_tail_s: {tail_s:.6g} s (p{pct:.1f} of all {len(lat)} "
                     f"samples, {TAIL_BEYOND} beyond it; not gated)")
    else:
        notes.append(f"latency_tail_s: not reported, {len(lat)} samples "
                     f"< {2 * TAIL_BEYOND}")
    return metrics, notes


def per_layer(out):
    self_s, counts = out["self_s"], out["counts"]
    untraced, traced = out["untraced"], out["traced"]
    metrics = {name + "_s": (self_s.get(name, 0.0), "s") for name in SPAN_METRICS}
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNT_METRICS})
    parse_s = self_s.get("formula.parse", 0.0)
    queries = counts.get("satbound.queries", 0)
    metrics.update({
        "formula.parse_mb_s": (counts["formula.parsed_bytes"] / 1e6 / parse_s
                               if parse_s else 0.0, "MB/s"),
        "formula.bytes_per_node": (counts["formula_bytes"] / counts["formula.dag_nodes"],
                                   "bytes/node"),
        "satbound.warmup_s": (out["warmup_s"], "s"),
        "satbound.sat_share": (counts.get("satbound.sat", 0) / queries
                               if queries else 0.0, "ratio"),
        # the same instance list, both warm: the last untraced pass and the traced one
        "bench.trace_overhead": (traced["seconds"] / untraced["pass_seconds"][-1], "ratio"),
    })
    total_self = sum(self_s.values())
    notes = [f"traced instance time: {out['instance_s']:.6f} s, "
             f"sum of self times: {total_self:.6f} s",
             f"untraced passes: {len(untraced['pass_seconds'])} over {untraced['seconds']:.2f} s",
             f"trace file: {out['trace_file']}"]
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bimodal" / "__init__.py").is_file():
        fail(f"no bimodal package under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "fixtures" / "m1.atm").is_file():
        fail(f"no fixtures/m1.atm under {ROOT}")

    report = [f"workload: {args.workload}", f"seed: {args.seed}",
              f"python: {platform.python_version()}", f"nproc: {os.cpu_count()}",
              "loadavg-before: " + " ".join(f"{x:.2f}" for x in os.getloadavg())]
    # set-up probes before and after the run, so that they see more than one
    # stretch of the shared machine's speed
    probe = ["--setup-only"]
    setups = [run_worker(args, probe, PROBE_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_PROBES // 2)]
    out = run_worker(args, [], WORKER_TIMEOUT_S)
    setups.append(out["setup_s"])
    setups += [run_worker(args, probe, PROBE_TIMEOUT_S)["setup_s"]
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    report.append("loadavg-after: " + " ".join(f"{x:.2f}" for x in os.getloadavg()))
    report.append("setup runs: " + " ".join(f"{s:.4f}" for s in setups))
    for i, line in enumerate(out["instances"]):
        report.append(f"instance {i}: {line}")

    if args.trace:
        metrics, notes = per_layer(out)
    else:
        metrics, notes = end_to_end(out, statistics.median(setups))
    runs = [out[key] for key in ("untraced", "traced") if key in out]
    attempted = sum(len(run["latencies"]) for run in runs)
    failures = [line for run in runs for line in run["failures"]]
    failed = len(failures)
    report.extend(notes)
    report.append(f"fail_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    report.extend(failures)
    for name, (value, unit) in metrics.items():
        report.append(f"{name}: {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
