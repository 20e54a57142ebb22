"""Tests of the benchmark itself: quick runs of every workload, and checks
that the result checks reject wrong results.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fuzzyshadow import fuzzy_metric as fm  # noqa: E402
from fuzzyshadow import orbits, systems  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import quantile, tail_level  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_same_seed_gives_same_inputs_and_verdicts():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "chain-reach", "--seed", "3", "--seconds", "1", "--quick")
        record = json.loads((ROOT / ".perfbench/runs/chain-reach-seed3-trace0.json").read_text())
        digests.append((record["inputs_digest"], record["verdict_digest"]))
        assert proc.returncode == 0
    assert digests[0] == digests[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_quantile_and_tail_level():
    xs = list(range(1001))
    assert quantile(xs, 0.5) == pytest.approx(500, abs=1)
    assert quantile(xs, 0.9) == pytest.approx(900, abs=2)
    assert tail_level(1000) == 0.9
    assert tail_level(50) == pytest.approx(0.8)
    assert sum(x > quantile(range(50), tail_level(50)) for x in range(50)) >= 10


def test_checks_reject_wrong_results():
    f, m = systems.tent(2.0), fm.StandardFuzzyMetric()
    seq = orbits.perturbed_orbit(f, 0.3, 50, 0.05, seed=1)
    horizon = fm.uniform_horizon(m, 0.1, 1e-2)
    assert workloads.retrace_fuzzy(seq.states, 0.0, f, m, 0.1, horizon) == []
    assert workloads.retrace_fuzzy(seq.states, 0.0, f, m, 0.1, 1.0)
    assert workloads.retrace_classical(seq.states, 0.9, f, 0.01)

    chain = orbits.chain_search(0.2, 0.8, f, m, 0.1, 1.0, 1e-2)
    assert workloads.check_chain(chain, 0.2, 0.8, f, m, 0.1, 1.0) == []
    assert workloads.check_chain(chain, 0.2, 0.7, f, m, 0.1, 1.0)
    broken = orbits.OrbitSequence(np.array([0.2, 0.5, 0.8]))
    assert workloads.check_chain(broken, 0.2, 0.8, f, m, 0.1, 1.0)
    assert workloads.check_spectrum({"present": [3, 4]}, 3) == []
    assert workloads.check_spectrum({"present": [4]}, 3)

    assert workloads.check_horizon(m, 0.1, 1e-2, horizon) == []
    assert workloads.check_horizon(m, 0.1, 1e-2, horizon / 2)
    assert workloads.check_horizon(m, 0.1, 1e-2, None)
    assert workloads.check_horizon(fm.RatioPhiFuzzyMetric(), 0.1, 1e-2, None) == []

    iset = orbits.IndexSet(np.array([1, 5, 150]), universe=1000)
    report = orbits.density(iset)
    assert workloads.check_density(report, iset) == []
    assert workloads.check_density(report, orbits.IndexSet(np.array([1]), universe=1000))


def test_digest_tells_outputs_apart():
    a = orbits.OrbitSequence(np.array([0.1, 0.2]))
    b = orbits.OrbitSequence(np.array([0.1, math.nextafter(0.2, 1.0)]))
    assert workloads.digest(a) == workloads.digest(orbits.OrbitSequence(np.array([0.1, 0.2])))
    assert workloads.digest(a) != workloads.digest(b)
