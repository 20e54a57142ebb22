"""Record the benchmark's end-to-end figures in a file you can diff, or
compare two source trees run by run.

    python tools/bench_record.py --out BENCH_31.json
    python tools/bench_record.py --pair ../parent

For each workload BENCHMARK.json lists, ``python perfbench/run.py --workload
<w> --seed 0 --trace 0`` runs in a subprocess for the benchmark's own run
length, and its run record ``.perfbench/runs/<w>-seed0-trace0.json`` is read
back.  The output file holds, per workload, the five end-to-end metrics,
``passes`` (the benchmark keeps a record per pass, so more passes in the same
time read as more ``peak_rss_mb``), ``failed``, ``verdict_digest`` and the
median latency of each operation, and once the record's ``seconds`` and
``machine``, the HEAD commit and the line count of ``src/``.

``--pair OTHER`` runs ``python <tree>/perfbench/run.py`` in OTHER and in
this tree by turns, PAIRS times, the first tree of a pair alternating, and
prints per workload and metric both medians, OTHER's interquartile range and
the pairs this tree won (a lower value wins; a tie wins neither).  Below that
it names, per workload, the TOP_OPS operations whose median latency over the
pairs changed most between the trees, relative to OTHER's, with both medians,
so that a shift in a metric can be traced to the operations that moved.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
METRICS = tuple(m["name"] for m in _SPEC["end_to_end"])
# a gain is claimed only when it wins at least 9 of 10 alternating pairs
PAIRS = 10
TOP_OPS = 5


def run_workload(tree: Path, workload: str, quick: bool) -> dict:
    """One benchmark run of workload in tree: its run record."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--trace", "0"]
    proc = subprocess.run(cmd + ["--quick"] * quick, cwd=tree, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads((tree / ".perfbench" / "runs" / f"{workload}-seed0-trace0.json")
                      .read_text())


def summary(record: dict) -> dict:
    """The figures of one run record that a BENCH file keeps."""
    return {
        "metrics": {k: record["metrics"][k]["value"] for k in METRICS},
        "passes": record["passes"],
        "failed": record["failed"],
        "verdict_digest": record["verdict_digest"],
        "op_median_s": {label: statistics.median(times)
                        for label, times in record["op_latencies_s"].items()},
    }


def src_lines(tree: Path) -> int:
    # the count perfbench/run.py --baseline prints, but only after its timings
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def head_commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(quick: bool, out: Path) -> None:
    runs = {w: run_workload(ROOT, w, quick) for w in WORKLOADS}
    first = next(iter(runs.values()))
    bench = {
        "commit": head_commit(ROOT),
        "src_lines": src_lines(ROOT),
        "seconds": first["seconds"],
        "quick": quick,
        "machine": first["machine"],
        "workloads": {w: summary(r) for w, r in runs.items()},
    }
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def op_shifts(base: dict, new: dict) -> list[tuple[str, float, float, float]]:
    """(label, base median, new median, relative change) of the TOP_OPS
    operations whose median changed most relative to base's, the largest
    change first; base and new map each label to its per-run medians."""
    rows = []
    for label in base.keys() & new.keys():
        a, b = statistics.median(base[label]), statistics.median(new[label])
        rows.append((label, a, b, b / a - 1 if a else math.inf if b else 0.0))
    return sorted(rows, key=lambda row: (-abs(row[3]), row[0]))[:TOP_OPS]


def pair(other: Path) -> None:
    """Alternating runs of other and this tree, printed as a table and the
    operations that moved most, each run's figures as a JSON line above."""
    values = {w: {m: ([], []) for m in METRICS} for w in WORKLOADS}
    ops = {w: ({}, {}) for w in WORKLOADS}
    for i in range(PAIRS):
        for w in WORKLOADS:
            order = (other, ROOT) if i % 2 == 0 else (ROOT, other)
            got = {tree: summary(run_workload(tree, w, False)) for tree in order}
            print(json.dumps({"pair": i, "workload": w, "other": got[other],
                              "this": got[ROOT]}), flush=True)
            for tree, side in ((other, 0), (ROOT, 1)):
                if got[tree]["failed"]:
                    raise RuntimeError(f"{w} in {tree}: {got[tree]['failed']} failed operations")
                for m in METRICS:
                    values[w][m][side].append(got[tree]["metrics"][m])
                for label, t in got[tree]["op_median_s"].items():
                    ops[w][side].setdefault(label, []).append(t)
    print(f"{'workload':14s} {'metric':12s} {'other':>12s} {'this':>12s} {'other IQR':>12s}"
          f" {'won':>6s}")
    for w in WORKLOADS:
        for m in METRICS:
            base, new = values[w][m]
            q1, q3 = quartiles(base)
            won = sum(b < a for a, b in zip(base, new))
            print(f"{w:14s} {m:12s} {statistics.median(base):12.6g} "
                  f"{statistics.median(new):12.6g} {q3 - q1:12.4g} {won:>3d}/{len(base)}")
    for w in WORKLOADS:
        print(f"\n{w}: the {TOP_OPS} operations whose median latency changed most (s)")
        for label, a, b, change in op_shifts(*ops[w]):
            print(f"  {label:60s} {a:12.6g} {b:12.6g} {change:+8.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and one pass per workload, for the tests")
    parser.add_argument("--out", type=Path, help="the BENCH file to write, say BENCH_<pr>.json")
    parser.add_argument("--pair", type=Path, metavar="OTHER",
                        help="compare with the source tree OTHER instead of recording")
    args = parser.parse_args(argv)
    if args.pair is not None:
        pair(args.pair.resolve())
    elif args.out is not None:
        record(args.quick, args.out)
    else:
        parser.error("give --out or --pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
