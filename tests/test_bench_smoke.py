"""The benchmark runs: one short run of each workload exits cleanly, checks
its outputs, fails no instance and reports exactly the end-to-end metrics
that BENCHMARK.json declares, with the exact formula text size of the
seed."""

import json
import subprocess
import sys

import pytest

from tests.conftest import ROOT

# formula_bytes at seed 1; the count depends only on the instance list.
FORMULA_BYTES = {"encode": 1_964_699, "branch": 508_833, "oracle": 1_897}


@pytest.mark.parametrize("workload", sorted(FORMULA_BYTES))
def test_one_second_run(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0
    metrics = report["metrics"]
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert metrics["formula_bytes"]["value"] == FORMULA_BYTES[workload]
