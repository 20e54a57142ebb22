"""fuzzyshadow benchmark: times the library and CLI on one seeded workload.

    python3 perfbench/run.py --workload tracing-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``src/fuzzyshadow`` is imported from
there, never from an installed copy.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Lines before it are a human-readable summary.

Other modes: ``--quick`` runs reduced sizes for one pass (the benchmark's own
tests use it), ``--baseline`` prints the reference figures kept in
``perfbench/baseline.json``, and ``--setup-only`` is the child process that
times one set-up.

All files go under ``.perfbench/`` in the checkout: a fresh temporary
directory per run (removed at exit) and one run record per run in
``.perfbench/runs/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the load is one single-threaded process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 7
TAIL = 10  # samples that must lie above a reported quantile

# Layer times reported in the JSON line are those every workload exercises;
# the full per-span table is printed above it and kept in the run record.
PER_LAYER = (
    ("systems.eval_array.calls", "count"),
    ("systems.eval_array.points", "count"),
    ("systems.eval_array.self_s", "s"),
    ("systems.eval.calls", "count"),
    ("fuzzy_metric.eval_array.calls", "count"),
    ("fuzzy_metric.eval_array.points", "count"),
    ("fuzzy_metric.eval_array.self_s", "s"),
    ("fuzzy_metric.uniform_horizon.kernel_points", "count"),
    ("fuzzy_metric.certify.kernel_points", "count"),
    ("shadowing.shadow_search.candidates", "count"),
    ("shadowing.shadow_search.candidate_steps", "count"),
    ("shadowing.shadow_search.survivor_frac", "ratio"),
    ("shadowing.classical_shadow_search.candidate_steps", "count"),
    ("shadowing.mixing_probe.steps", "count"),
    ("orbits.chain_search.nodes", "count"),
    ("orbits.chain_search.frontier_steps", "count"),
    ("orbits.chain_search.pair_evals", "count"),
    ("orbits.chain_mixing.pair_evals", "count"),
    ("orbits.chain_mixing.traced_peak_mb", "MB"),
    ("orbits.self_s", "s"),
    ("orbits.csv.bytes", "bytes"),
    ("reports.json_text.bytes", "bytes"),
    ("design_share", "ratio"),
    ("trace_overhead_frac", "ratio"),
)

# Spans whose inclusive time is the work each workload was chosen to stress.
DESIGN_SPANS = {
    "paper-suite": ("cli.main",),
    "tracing-sweep": ("shadowing.shadow_search", "shadowing.classical_shadow_search"),
    "chain-reach": ("orbits.chain_search", "orbits.chain_mixing",
                    "fuzzy_metric.uniform_horizon", "fuzzy_metric.certify"),
    "orbit-stream": ("orbits.perturbed_orbit", "orbits.build_transitivity_orbit",
                     "orbits.interleave_for_power", "orbits.transitivity_skeleton",
                     "orbits.validate_f_pseudo_orbit", "orbits.classical_validate",
                     "orbits.npo_set", "orbits.ns_set", "orbits.density",
                     "orbits.to_csv", "orbits.from_csv"),
}


def _import_workloads():
    """Import the package from this checkout's src/ and the workload module."""
    if not (SRC / "fuzzyshadow" / "__init__.py").is_file():
        raise SystemExit(f"error: no fuzzyshadow sources under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import fuzzyshadow

    if Path(fuzzyshadow.__file__).resolve().parent != SRC / "fuzzyshadow":
        raise SystemExit(f"error: imported fuzzyshadow from {fuzzyshadow.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982): the
    mean of all order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
    density.

    The operation list repeats every pass, so latencies come in one cluster
    per operation; a single order statistic jumps between clusters from run
    to run, while this weighted mean of its neighbourhood moves smoothly.
    """
    import numpy as np  # imported here so that set-up time includes numpy

    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], u]), cdf)
    return float(np.dot(np.diff(edges), xs))


def tail_level(n: int, p: float = 0.9, tail: int = TAIL) -> float:
    """p, lowered until ``tail`` of n samples lie above that level."""
    return min(p, (n - tail) / n) if n > 2 * tail else 0.5


def latencies_by_label(passes) -> dict:
    by_label = {}
    for p in passes:
        for (label, _), t in zip(p.digests, p.latencies):
            by_label.setdefault(label, []).append(t)
    return by_label


# -- set-up -------------------------------------------------------------------------


def setup(name: str, seed: int, quick: bool):
    """Import, build the workload's maps, metrics and inputs, and warm up.
    Returns (workloads module, workload, seconds taken)."""
    start = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.build(name, seed, quick)
    workload.warm_up()
    return workloads, workload, time.perf_counter() - start


def setup_in_child(name: str, seed: int, quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- timed passes ------------------------------------------------------------------


class Pass:
    """One run of the whole operation list: latencies, digests, results."""

    def __init__(self):
        self.latencies = []
        self.digests = []  # (label, digest or None when the operation raised)
        self.errors = []
        self.results = {}

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_pass(workloads, ops, keep_results: bool) -> Pass:
    gc.collect()  # start every pass from the same collector state
    done = Pass()
    queue = list(ops)
    while queue:
        op = queue.pop(0)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation
            done.latencies.append(time.perf_counter() - start)
            done.digests.append((op.label, None))
            done.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        done.latencies.append(time.perf_counter() - start)
        if isinstance(result, workloads.CliResult):
            result.capture()
        done.digests.append((op.label, workloads.digest(result)))
        if keep_results:
            done.results[op.label] = (op, result)
        extra = op.follow(result)
        if extra is not None:
            queue.insert(0, extra)
    return done


def check_results(first: Pass) -> dict:
    """Failure messages by label, from each operation's own check."""
    results = {label: result for label, (_op, result) in first.results.items()}
    failures = {}
    for label, (op, result) in first.results.items():
        try:
            problems = op.check(result, results)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[label] = problems
    return failures


def count_failed(passes, failures) -> int:
    """An execution fails when it raised, when its result failed its check, or
    when its digest differs from the first pass's."""
    reference = dict(passes[0].digests)
    failed = 0
    for p in passes:
        for label, dig in p.digests:
            if dig is None or label in failures or dig != reference.get(label):
                failed += 1
    return failed


def verdict_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for label, dig in p.digests:
        h.update(f"{label}\t{dig}\n".encode())
    return h.hexdigest()


# -- traced passes -------------------------------------------------------------------


def layer_metrics(tracer, name: str, wall_s: float) -> dict:
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s

    def count(span, key):
        return counts[span][key] if span in counts else 0

    pairs = count("shadowing.shadow_search", "candidate_index_pairs")
    values = {
        "systems.eval_array.calls": calls.get("systems.eval_array", 0),
        "systems.eval_array.points": count("systems.eval_array", "points"),
        "systems.eval_array.self_s": self_s.get("systems.eval_array", 0.0),
        "systems.eval.calls": calls.get("systems.eval", 0),
        "fuzzy_metric.eval_array.calls": calls.get("fuzzy_metric.eval_array", 0),
        "fuzzy_metric.eval_array.points": count("fuzzy_metric.eval_array", "points"),
        "fuzzy_metric.eval_array.self_s": self_s.get("fuzzy_metric.eval_array", 0.0),
        "fuzzy_metric.uniform_horizon.kernel_points":
            count("fuzzy_metric.uniform_horizon", "kernel_points"),
        "fuzzy_metric.certify.kernel_points": count("fuzzy_metric.certify", "kernel_points"),
        "shadowing.shadow_search.candidates": count("shadowing.shadow_search", "candidates"),
        "shadowing.shadow_search.candidate_steps":
            count("shadowing.shadow_search", "map_points"),
        "shadowing.shadow_search.survivor_frac":
            count("shadowing.shadow_search", "kernel_points") / pairs if pairs else 0.0,
        "shadowing.classical_shadow_search.candidate_steps":
            count("shadowing.classical_shadow_search", "map_points"),
        "shadowing.mixing_probe.steps": count("shadowing.mixing_probe", "map_points"),
        "orbits.chain_search.nodes": count("orbits.chain_search", "nodes"),
        "orbits.chain_search.frontier_steps": count("orbits.chain_search", "map_points"),
        "orbits.chain_search.pair_evals": count("orbits.chain_search", "kernel_points"),
        "orbits.chain_mixing.pair_evals": count("orbits.chain_mixing", "kernel_points"),
        "orbits.chain_mixing.traced_peak_mb": tracer.peak_mb.get("orbits.chain_mixing", 0.0),
        "orbits.self_s": tracer.layer_self_s("orbits"),
        "orbits.csv.bytes": count("orbits.to_csv", "bytes") + count("orbits.from_csv", "bytes"),
        "reports.json_text.bytes": count("reports.json_text", "bytes"),
        "design_share": tracer.covered_s(DESIGN_SPANS[name]) / wall_s,
    }
    return {k: float(v) if isinstance(v, float) else int(v) for k, v in values.items()}


def span_table(tracer) -> dict:
    """Self time, total time and calls for every span name, plus the self
    time of each module and of the orbits groups."""
    table = {name: {"self_s": tracer.self_s[name], "total_s": tracer.total_s[name],
                    "calls": tracer.calls[name]} for name in sorted(tracer.self_s)}
    layers = {layer: tracer.layer_self_s(layer)
              for layer in ("systems", "fuzzy_metric", "tnorm", "orbits", "orbits.generate",
                            "orbits.validate", "orbits.csv", "shadowing", "reports", "cli")}
    return {"spans": table, "layers_self_s": layers}


# -- modes -----------------------------------------------------------------------------


@contextlib.contextmanager
def fresh_workdir(prefix: str):
    """Run inside a new directory under .perfbench/tmp, removed afterwards."""
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=prefix, dir=STATE / "tmp"))
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run_benchmark(args) -> int:
    quick = args.quick
    workloads, workload, main_setup = setup(args.workload, args.seed, quick)
    children = [setup_in_child(args.workload, args.seed, quick)
                for _ in range(1 if quick else SETUP_SAMPLES - 1)]
    setup_s = statistics.median([main_setup] + [c["setup_s"] for c in children])
    inputs_repeat = all(c["inputs_digest"] == workload.inputs_digest for c in children)

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
    passes, traced, layer_runs, table = [], [], [], None
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and (len(passes) + len(traced)) % 2 == 1
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(workloads, workload.ops, keep_results=False)
            finally:
                tracer.uninstall()
            traced.append(p)
            layer_runs.append(layer_metrics(tracer, workload.name, p.wall_s))
            table = span_table(tracer)
        else:
            passes.append(run_pass(workloads, workload.ops, keep_results=not passes))
        enough = time.perf_counter() - start >= args.seconds or quick
        if enough and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check_results(passes[0])
    every = passes + traced
    attempted = sum(len(p.digests) for p in every)
    failed = count_failed(every, failures)
    errors = [e for p in every for e in p.errors]
    latencies = [t for p in passes for t in p.latencies]
    wall_s = statistics.median(p.wall_s for p in passes)
    p90_used = tail_level(len(latencies))
    p90 = quantile(latencies, p90_used)
    counted = [k for k, unit in PER_LAYER if unit in ("count", "bytes")]
    counts_repeat = all(run[k] == layer_runs[0][k] for run in layer_runs for k in counted)
    correct = failed == 0 and inputs_repeat and counts_repeat

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_s": (quantile(latencies, 0.5), "s"),
            "op_p90_s": (p90, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = {}
        for key, unit in PER_LAYER[:-1]:
            values = [run[key] for run in layer_runs]
            # counts repeat exactly (checked above); the rest are medians
            value = values[0] if key in counted else statistics.median(values)
            metrics[key] = (value, unit)
        overhead = statistics.median(p.wall_s for p in traced) / wall_s - 1.0
        metrics["trace_overhead_frac"] = (overhead, "ratio")

    digest = verdict_digest(passes[0])
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "quick": quick, "sizes": workload.sizes,
        "passes": len(passes), "traced_passes": len(traced),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": [main_setup] + [c["setup_s"] for c in children],
        "op_count": len(latencies), "op_p90_quantile": p90_used,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures, "errors": errors[:50],
        "inputs_digest": workload.inputs_digest, "inputs_repeat": inputs_repeat,
        "counts_repeat": counts_repeat, "verdict_digest": digest,
        "op_digests": passes[0].digests,
        "op_latencies_s": latencies_by_label(passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "machine": machine(),
    }
    if table:
        record["span_table"] = table
        record["spans"] = tracer.spans
    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    record_path = runs / f"{workload.name}-seed{args.seed}-trace{int(args.trace)}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes"
          f"{f' + {len(traced)} traced' if traced else ''}, {len(latencies)} timed "
          f"operations, op_p90_s at quantile {p90_used:.3f}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted}); "
          f"verdict digest {digest[:16]}; record {record_path.relative_to(ROOT)}")
    for label, problems in list(failures.items())[:10]:
        print(f"check failed: {label}: {'; '.join(problems)}")
    for error in errors[:10]:
        print(f"raised: {error}")
    if table:
        print("span self_s (last traced pass):")
        spans = table["spans"]
        for span in sorted(spans, key=lambda s: -spans[s]["self_s"]):
            print(f"  {span:42s} {spans[span]['self_s']:10.4f} s  "
                  f"{spans[span]['calls']:>9d} calls")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_setup_only(args) -> int:
    _, workload, seconds = setup(args.workload, args.seed, args.quick)
    print(json.dumps({"setup_s": seconds, "inputs_digest": workload.inputs_digest}))
    return 0


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_baseline(args) -> int:
    """Reference figures: the ROADMAP baseline list, median of three runs."""
    import tracemalloc

    workloads = _import_workloads()
    from fuzzyshadow import cli, orbits, shadowing, systems
    from fuzzyshadow import fuzzy_metric as fm

    std, f2 = fm.StandardFuzzyMetric(), systems.tent(2.0)
    horizon = fm.uniform_horizon(std, 0.1, resolution=1e-2)
    orbit = orbits.perturbed_orbit(f2, 0.3, 1000, 0.05, seed=0)

    def timed(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def remark():
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["reproduce", "remark-4.2", "--out", "out"]) == 0

    mixing = lambda: orbits.chain_mixing_check(0.2, 0.8, f2, std, 0.1, 1.0, 2.5e-4, 64)
    figures = {
        "reproduce remark-4.2 (s)": timed(remark),
        "shadow_search tent:2 n=1000 grid=1e-5 t0=horizon (s)":
            timed(lambda: shadowing.shadow_search(orbit, f2, std, 0.1, horizon, 1e-5)),
        "uniform_horizon standard eps=0.1 grid=1e-3 (s)":
            timed(lambda: fm.uniform_horizon(std, 0.1, 1e-3)),
        "chain_mixing_check tent:2 grid=2.5e-4 n_max=64 (s)": timed(mixing),
        "perturbed_orbit tent:2 n=1e5 (s)":
            timed(lambda: orbits.perturbed_orbit(f2, 0.3, 10**5, 0.05, seed=0)),
    }
    tracemalloc.start()
    mixing()
    figures["chain_mixing_check tent:2 grid=2.5e-4 traced peak (MB)"] = (
        tracemalloc.get_traced_memory()[1] / 2**20)
    tracemalloc.stop()
    sizes = {}
    for name in workloads.NAMES:
        sizes[name] = {"why": workloads.WHY[name],
                       "sizes": workloads.build(name, 0).sizes}
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    print(json.dumps({"machine": machine(), "src_lines": src_lines,
                      "figures": figures, "workloads": sizes}, indent=1, default=str))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper-suite", "tracing-sweep", "chain-reach",
                                               "orbit-stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and a single pass, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--baseline", action="store_true",
                        help="print the reference figures and workload sizes as JSON")
    args = parser.parse_args(argv)
    if args.baseline:
        mode, prefix = run_baseline, "baseline-"
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.setup_only:
        mode, prefix = run_setup_only, "setup-"
    else:
        mode, prefix = run_benchmark, f"{args.workload}-"
    with fresh_workdir(prefix):
        return mode(args)


if __name__ == "__main__":
    sys.exit(main())
