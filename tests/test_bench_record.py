"""The perf recorder: a quick run of every workload gives a BENCH file with
the five end-to-end metrics, the pass count, no failed operations, the
verdict digest and per-op medians, and the machine, commit and src/ size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb"}


def test_quick_record_of_every_workload(tmp_path):
    # on a copy of the tree, so the checkout's own run records stay as they are
    tree = tmp_path / "tree"
    for name in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, str(tree / "tools" / "bench_record.py"), "--quick",
                           "--out", str(out)],
                          cwd=tree, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    assert set(bench) == {"commit", "src_lines", "seconds", "quick", "machine", "workloads"}
    assert bench["quick"] is True and bench["src_lines"] > 0
    assert {"nproc", "python", "numpy", "platform"} <= set(bench["machine"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert METRICS == {m["name"] for m in spec["end_to_end"]}
    for name, figures in bench["workloads"].items():
        assert set(figures) == {"metrics", "passes", "failed", "verdict_digest", "op_median_s"}
        assert set(figures["metrics"]) == METRICS, name
        assert figures["failed"] == 0 and figures["passes"] == 1, name
        assert len(figures["verdict_digest"]) == 64 and figures["op_median_s"], name
        assert all(t >= 0.0 for t in figures["op_median_s"].values()), name
    assert (tree / ".perfbench" / "runs").is_dir()
