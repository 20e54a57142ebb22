"""The four benchmark workloads: seeded inputs, operation lists and result checks.

Each workload is a fixed list of operations.  An operation is one verdict call
into the library, or one in-process invocation of the CLI; the benchmark
times each one and runs them back to back (a closed loop, one thread).
Inputs come from the workload seed and are built during set-up.

Every operation carries a check that runs after the timed region.  Checks
recompute what they can with the scalar path (``IntervalMap.eval``,
``FuzzyMetric.eval``) or plain numpy, so they do not share the batch code
they check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fuzzyshadow import cli, orbits, shadowing, systems
from fuzzyshadow import fuzzy_metric as fm

NAMES = ("paper-suite", "tracing-sweep", "chain-reach", "orbit-stream")

WHY = {
    "paper-suite": "what a reader of the paper runs: all 8 reproduce cases plus every other "
                   "CLI command; the only workload that writes reports",
    "tracing-sweep": "O(n x grid) witness-search survivor loop over the batch eval_array path, "
                     "with no pair-matrix code",
    "chain-reach": "dense frontier x nodes and grid x grid matrices: chains, mixing, horizons "
                   "and continuity moduli grow as O(grid^2)",
    "orbit-stream": "1e5-1e6 long sequences through the scalar eval path, orbit generation, "
                    "validators and CSV files",
}

EPS = 0.1


@dataclass
class CliResult:
    """Exit code, stdout and the files one CLI invocation wrote."""

    code: int
    stdout: str
    outdir: Path
    files: dict = field(default_factory=dict)

    def capture(self) -> None:
        self.files = {p.name: p.read_bytes() for p in sorted(self.outdir.iterdir())}

    def report(self, name: str) -> dict:
        return json.loads(self.files[name])


@dataclass
class Op:
    """One timed operation.

    ``check(result, results)`` returns failure messages; ``results`` maps the
    labels of the same pass to their results, for checks that compare two
    operations.  ``follow(result)`` may return one more operation, run and
    timed right after this one (the ``ns_set`` of a witness just found).
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list] = lambda result, results: []
    follow: Callable[[Any], "Op | None"] = lambda result: None


@dataclass
class Workload:
    """Operations plus a warm-up call that pays lazy imports and first-call
    costs before timing starts."""

    name: str
    ops: list
    inputs_digest: str
    sizes: dict
    warm_up: Callable[[], Any]


# -- digests ------------------------------------------------------------------------


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + repr(float(obj)).encode() + b";")
    elif isinstance(obj, str):
        h.update(b"s%d:" % len(obj) + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, orbits.OrbitSequence):
        _feed(h, (obj.provenance, obj.states))
    elif isinstance(obj, orbits.IndexSet):
        _feed(h, (obj.universe, obj.indices))
    elif isinstance(obj, CliResult):
        _feed(h, (obj.code, obj.stdout, obj.files))
    elif hasattr(obj, "to_dict"):
        _feed(h, obj.to_dict())
    elif is_dataclass(obj):
        _feed(h, asdict(obj))
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__}")


def digest(obj) -> str:
    """SHA-256 of a verdict output: equal outputs give equal digests."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# -- independent re-checks ---------------------------------------------------------


def retrace_fuzzy(states, witness, f, m, eps, t0) -> list:
    """Trace a fuzzy witness with the scalar path: M(f^i(w), x_i, t0) > 1 - eps."""
    v = float(witness)
    for i, s in enumerate(states):
        if not m.eval(v, float(s), t0) > 1.0 - eps:
            return [f"fuzzy witness {witness!r} fails at index {i}"]
        if i + 1 < len(states):
            v = f.eval(v)
    return []


def retrace_classical(states, witness, f, eps) -> list:
    """Trace a classical witness with the scalar path: |f^i(w) - x_i| < eps."""
    v = float(witness)
    for i, s in enumerate(states):
        if not abs(v - float(s)) < eps:
            return [f"classical witness {witness!r} fails at index {i}"]
        if i + 1 < len(states):
            v = f.eval(v)
    return []


def scalar_orbit(f, x, n) -> np.ndarray:
    out = np.empty(n)
    v = float(x)
    for i in range(n):
        out[i] = v
        if i + 1 < n:
            v = f.eval(v)
    return out


def check_chain(chain, x, y, f, m, delta, t0) -> list:
    if chain is None:
        return []
    problems = []
    if chain[0] != x or chain[len(chain) - 1] != y:
        problems.append(f"chain runs {chain[0]!r} -> {chain[len(chain) - 1]!r}, not {x!r} -> {y!r}")
    if len(chain) > 1:
        bad = orbits.validate_f_pseudo_orbit(chain, f, m, delta, t0)
        if not bad.is_empty:
            problems.append(f"chain breaks the transition bound at {bad.indices[:5].tolist()}")
    return problems


def check_spectrum(spectrum: dict, chain_length) -> list:
    """The shortest chain length is the least present length of the spectrum."""
    present = spectrum["present"]
    if chain_length is None:
        return [] if not present else [f"spectrum {present[:5]} but no chain"]
    if not present or present[0] != chain_length:
        return [f"shortest chain {chain_length} but spectrum starts {present[:3]}"]
    return []


def check_horizon(m, eps, resolution, horizon) -> list:
    """The horizon satisfies the bound on the grid's diameter pair (the pair
    of least nearness for these metrics); None means even the top rung fails."""
    pts = m.grid(resolution)
    lo, hi = float(pts[0]), float(pts[-1])
    if horizon is None:
        top = fm.HORIZON_LADDER[-1]
        if m.eval(lo, hi, top) > 1.0 - eps:
            return [f"no horizon reported, but t={top:g} meets the bound"]
        return []
    if not m.eval(lo, hi, horizon) > 1.0 - eps:
        return [f"horizon {horizon!r} fails on the diameter pair ({lo!r}, {hi!r})"]
    return []


def check_density(report, iset) -> list:
    ns = [n for n, _ in report.points]
    expect = [int(np.searchsorted(iset.indices, n)) / n for n in ns]
    if [d for _, d in report.points] != expect:
        return ["density curve differs from recount"]
    if ns[-1] != iset.universe or report.final_density != expect[-1]:
        return ["density curve does not end at the universe"]
    return []


# -- helpers -----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli_op(label, argv, check) -> Op:
    """One in-process CLI invocation.  Its check sees only results with a
    verdict exit code (0 or 1); anything else already fails."""
    # one output directory per operation, so each capture sees only its files
    outdir = Path("out") / label.replace(" ", "_").replace("-", "_")

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out", str(outdir)])
        return CliResult(code, buf.getvalue(), outdir)

    def checked(res, results):
        if res.code not in (0, 1):
            return [f"exit code {res.code}"]
        return check(res, results)

    return Op(label, run, checked)


def _exit_matches(res: CliResult, passed: bool) -> list:
    return [] if (res.code == 0) == passed else [f"exit {res.code} does not match the report"]


def _near(rng, centre: float, jitter: float = 0.01) -> float:
    # The seed moves an endpoint only slightly: chain lengths and frontier
    # growth, and so the work per operation, stay the same across seeds, and
    # the spread between seeds measures the machine rather than the input.
    return float(centre + rng.uniform(-jitter, jitter))


def _rng_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- paper-suite ---------------------------------------------------------------------


def paper_suite(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    std = fm.StandardFuzzyMetric()
    f2 = systems.tent(2.0)
    fs = systems.tent(math.sqrt(2))
    horizon = fm.uniform_horizon(std, EPS, resolution=1e-2)

    n_shadow, n_sweep = (200, 100) if quick else (1000, 150)
    shadow_orbit = orbits.perturbed_orbit(f2, rng.uniform(0.2, 0.8), n_shadow, 0.05,
                                          seed=_rng_seed(rng))
    sweep_orbit = orbits.perturbed_orbit(fs, rng.uniform(0.2, 0.8), n_sweep, 0.05,
                                         seed=_rng_seed(rng))
    Path("inputs").mkdir(exist_ok=True)
    shadow_orbit.to_csv("inputs/tent2.csv")
    sweep_orbit.to_csv("inputs/tent-sqrt2.csv")
    x, y = _near(rng, 0.25), _near(rng, 0.75)
    u, v = _near(rng, 0.3), _near(rng, 0.7)
    sweep_t0s = [1.0, horizon]

    ops = []
    cases = cli.REPRODUCE_CASES
    if quick:
        cases = tuple(c for c in cases if c != "remark-4.2")
    for case in cases:
        def check_case(res, results, case=case):
            report = res.report(f"{case}.json")
            if res.code == 0 and "PASS" in res.stdout and report["passed"]:
                return []
            return [f"reproduce {case} did not PASS (exit {res.code})"]
        ops.append(_cli_op(f"reproduce {case}", ["reproduce", case, "--seed", str(seed)],
                           check_case))

    samples = "1000" if quick else "100000"
    for kind in ("check-metric", "check-tnorm"):
        names = fm.METRIC_NAMES if kind == "check-metric" else ("product", "minimum", "lukasiewicz")
        for name in names:
            def check_axioms(res, results, kind=kind, name=name):
                passed = res.report(f"{kind}-{name}.json")["report"]["all_passed"]
                return _exit_matches(res, passed)
            ops.append(_cli_op(f"{kind} {name}",
                               [kind, name, "--seed", str(seed), "--samples", samples],
                               check_axioms))

    def check_shadow(res, results):
        report = res.report("shadow.json")
        problems = _exit_matches(res, report["verdict"] == "witness-found")
        if report["witness"] is not None:
            problems += retrace_fuzzy(shadow_orbit.states, report["witness"], f2, std,
                                      EPS, horizon)
        return problems

    ops.append(_cli_op("shadow", ["shadow", "--map", "tent:2", "--metric", "standard",
                                  "--eps", _fmt(EPS), "--t0", _fmt(horizon),
                                  "--orbit", "inputs/tent2.csv"], check_shadow))

    def check_chain_cli(res, results):
        report = res.report("chain.json")
        problems = _exit_matches(res, report["found"])
        if report["found"]:
            chain = orbits.OrbitSequence(np.array(report["states"]))
            problems += check_chain(chain, x, y, f2, std, 0.1, 1.0)
        return problems + check_spectrum(report["length_spectrum"], report["length"])

    ops.append(_cli_op("chain --lengths", ["chain", "--map", "tent:2", "--metric", "standard",
                                           "--from", _fmt(x), "--to", _fmt(y), "--delta", "0.1",
                                           "--lengths"], check_chain_cli))

    def check_mix(res, results):
        return _exit_matches(res, bool(res.report("mix.json")["present"]))

    # slope-2 float orbits collapse after ~53 doublings, hence n_max 48
    ops.append(_cli_op("mix", ["mix", "--map", "tent:2", "--metric", "standard",
                               "--u-center", _fmt(u), "--u-radius", "0.1",
                               "--v-center", _fmt(v), "--v-radius", "0.1", "--n-max", "48",
                               "--grid", "1e-3" if quick else "1e-4"],
                       check_mix))

    def check_density_cli(res, results):
        return _exit_matches(res, res.report("density.json")["report"]["plausibly_zero"])

    n_construction = "100000" if quick else "1000000"
    ops.append(_cli_op("density --construction", ["density", "--construction", "theorem-3.3",
                                                  "--n", n_construction],
                       check_density_cli))
    ops.append(_cli_op("density --orbit", ["density", "--orbit", "inputs/tent2.csv",
                                           "--map", "tent:2", "--metric", "standard",
                                           "--delta", "0.1"],
                       check_density_cli))

    def check_sweep(res, results):
        problems = _exit_matches(res, True)
        for row in res.report("sweep.json")["rows"]:
            if row["witness"] is not None:
                problems += retrace_fuzzy(sweep_orbit.states, row["witness"], fs, std,
                                          row["eps"], row["t0"])
        return problems

    ops.append(_cli_op("sweep", ["sweep", "--map", "tent:sqrt2", "--metric", "standard",
                                 "--orbit", "inputs/tent-sqrt2.csv",
                                 "--eps-list", "0.05,0.1,0.2", "--delta-list", "0.01,0.05",
                                 "--t0-list", ",".join(_fmt(t) for t in sweep_t0s)],
                       check_sweep))

    sizes = {"reproduce_cases": len(cases), "shadow_orbit_n": n_shadow,
             "sweep_orbit_n": n_sweep, "axiom_samples": int(samples),
             "density_construction_n": int(n_construction)}
    warm = _cli_op("warm-up", ["check-tnorm", "product", "--samples", "100"], None)
    return Workload("paper-suite", ops,
                    digest([shadow_orbit, sweep_orbit, x, y, u, v, horizon]), sizes,
                    warm.run)


# -- tracing-sweep ---------------------------------------------------------------------


def tracing_sweep(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    std = fm.StandardFuzzyMetric()
    rphi = fm.RatioPhiFuzzyMetric()
    horizon = fm.uniform_horizon(std, EPS, resolution=1e-2)
    # (label, map, metric, noise, start range, t0 below the horizon, t0 at
    # it, whether classical tracing succeeds).  Searches that fail die within
    # a few indices, so their cost is set by the grid alone: they run at the
    # finest grid.  Searches that find a witness cost n x grid points, so they
    # sweep the grids up to a cap on that product.  At the standard horizon
    # every candidate survives on every tent map, so tent:2 stands in for the
    # three there.  ratio-phi has no uniform horizon: min(t, 1) <= 1 - eps
    # empties every ball, and at t = 1 the orbits near the fixed point 1 of
    # example43 trace, classically too under its small noise.
    configs = [
        ("tent:sqrt2", systems.tent(math.sqrt(2)), std, 0.05, (0.2, 0.8), 1.0, None, False),
        ("tent:1.6", systems.tent(1.6), std, 0.05, (0.2, 0.8), 1.0, None, False),
        ("tent:2", systems.tent(2.0), std, 0.05, (0.2, 0.8), 1.0, horizon, False),
        ("example43", systems.example43_map(), rphi, 0.01, (0.6, 0.95), 0.5, 1.0, True),
    ]
    lengths = (100, 1000) if quick else (100, 1000, 10000)
    grids = (1e-3, 1e-4) if quick else (1e-3, 1e-4, 1e-5)
    max_work = 1e6 if quick else 1e7  # cap on n x grid points for witness searches

    ops, inputs = [], []
    for label, f, m, noise, (a, b), t_below, t_at, classical_traces in configs:
        for n in lengths:
            seq = orbits.perturbed_orbit(f, rng.uniform(a, b), n, noise, seed=_rng_seed(rng))
            inputs.append(seq)
            states = seq.states
            tag = f"{label} n={n}"
            swept = [g for g in grids if n / g <= max_work]

            def check_valid(res, results, f=f, m=m, states=states):
                return _check_validator(res, states, f, m, EPS, 1.0, _sample(len(states) - 1))

            ops.append(Op(f"validate_f_pseudo_orbit {tag}",
                          lambda seq=seq, f=f, m=m: orbits.validate_f_pseudo_orbit(seq, f, m, EPS, 1.0),
                          check_valid))
            ops.append(_shadow_op(f"shadow_search {tag} grid={grids[-1]:g} t0=below",
                                  seq, f, m, t_below, grids[-1]))
            for grid in swept if t_at is not None else ():
                ops.append(_shadow_op(f"shadow_search {tag} grid={grid:g} t0=at",
                                      seq, f, m, t_at, grid))
            for grid in swept if classical_traces else grids[-1:]:
                ops.append(_classical_op(f"classical_shadow_search {tag} grid={grid:g}",
                                         seq, f, grid))
    sizes = {"maps": [c[0] for c in configs], "lengths": list(lengths), "grids": list(grids),
             "witness_search_max_n_times_points": max_work, "eps": EPS,
             "t0_at_horizon": {c[0]: c[6] for c in configs if c[6] is not None}}
    warm_seq, warm_map = inputs[0], configs[0][1]
    return Workload("tracing-sweep", ops, digest([inputs, horizon]), sizes,
                    lambda: shadowing.shadow_search(warm_seq, warm_map, std, EPS, horizon, 1e-2))


def _sample(n: int, k: int = 200) -> np.ndarray:
    return np.arange(0, n, max(1, n // k))


def _check_validator(res, states, f, m, delta, t0, sample) -> list:
    """Reported fuzzy violations are violations; sampled others are not."""
    reported = set(res.indices.tolist())
    for i in np.union1d(res.indices, sample).tolist():
        violated = not m.eval(f.eval(float(states[i])), float(states[i + 1]), t0) > 1.0 - delta
        if violated != (i in reported):
            return [f"transition {i}: reported {i in reported}, recomputed {violated}"]
    return []


def _shadow_op(label, seq, f, m, t0, grid) -> Op:
    def check(res, results):
        if res.witness is None:
            return []
        return retrace_fuzzy(seq.states, res.witness, f, m, EPS, t0)

    def follow(res):
        if res.witness is None:
            return None

        def check_ns(iset, results):
            return [] if iset.is_empty else [f"ns_set of the witness has {iset.indices.size} indices"]

        return Op(f"ns_set {label}", lambda: orbits.ns_set(seq, res.witness, f, m, EPS, t0),
                  check_ns)

    return Op(label, lambda: shadowing.shadow_search(seq, f, m, EPS, t0, grid), check, follow)


def _classical_op(label, seq, f, grid) -> Op:
    def check(res, results):
        if res.witness is None:
            return []
        return retrace_classical(seq.states, res.witness, f, EPS)

    def follow(res):
        if res.witness is None:
            return None

        def check_ns(iset, results):
            return [] if iset.is_empty else [f"classical_ns_set of the witness has {iset.indices.size} indices"]

        return Op(f"classical_ns_set {label}",
                  lambda: orbits.classical_ns_set(seq, res.witness, f, EPS), check_ns)

    return Op(label, lambda: shadowing.classical_shadow_search(seq, f, EPS, grid), check, follow)


# -- chain-reach -----------------------------------------------------------------------


def chain_reach(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    std = fm.StandardFuzzyMetric()
    rphi = fm.RatioPhiFuzzyMetric()
    f2, fs, e43 = systems.tent(2.0), systems.tent(math.sqrt(2)), systems.example43_map()
    g = systems.perturbation_g(1.0 / 256.0)
    delta, t0 = 0.1, 1.0
    fine = 1e-3 if quick else 2.5e-4
    # (label, map, metric, chain grids, mixing-probe steps); slope-2 float
    # orbits collapse after ~53 doublings, so its probe stops at 48
    configs = [
        ("tent:2", f2, std, (1e-2, 1e-3, fine), 48),
        ("tent:sqrt2", fs, std, (1e-2, 1e-3) if quick else (1e-3, 5e-4), 64),
        ("example43", e43, rphi, (1e-2, 1e-3) if quick else (1e-3, 5e-4), 64),
    ]
    horizon_grids = {"standard": (1e-2, 3e-3) if quick else (1e-2, 3e-3, 1e-3),
                     "ratio-phi": (1e-2, 3e-3)}
    modulus_grids = (1e-2,) if quick else (1e-3, 5e-4)

    ops, inputs = [], []
    for label, f, m, chain_grids, probe_steps in configs:
        # chains run upward: example43 never maps states back below 1/2
        x, y = _near(rng, 0.25), _near(rng, 0.75)
        inputs.append((x, y))
        for grid in chain_grids:
            tag = f"{label}/{m.name} {x:.4f}->{y:.4f} grid={grid:g}"
            chain_label = f"chain_search {tag}"

            def check_chain_op(res, results, f=f, m=m, x=x, y=y):
                return check_chain(res, x, y, f, m, delta, t0)

            def check_mixing(res, results, chain_label=chain_label):
                chain = results.get(chain_label)
                return check_spectrum(res.to_dict(), None if chain is None else len(chain))

            ops.append(Op(chain_label, lambda x=x, y=y, f=f, m=m, grid=grid:
                          orbits.chain_search(x, y, f, m, delta, t0, grid), check_chain_op))
            ops.append(Op(f"chain_mixing_check {tag}", lambda x=x, y=y, f=f, m=m, grid=grid:
                          orbits.chain_mixing_check(x, y, f, m, delta, t0, grid, 64),
                          check_mixing))

        centers = (_near(rng, 0.25), _near(rng, 0.75))
        inputs.append(centers)
        u, v = fm.Ball(centers[0], 0.1, t0), fm.Ball(centers[1], 0.1, t0)

        def check_probe(res, results, f=f, m=m, u=u, v=v, steps=probe_steps):
            return _check_probe(res, f, m, u, v, steps, 1e-2 if quick else 1e-3)

        ops.append(Op(f"topological_mixing_probe {label}/{m.name}",
                      lambda f=f, u=u, v=v, m=m, steps=probe_steps:
                      shadowing.topological_mixing_probe(f, u, v, m, steps,
                                                         1e-2 if quick else 1e-3),
                      check_probe))
        for grid in (1e-2, 1e-3):
            def check_cert(res, results, f=f, m=m, grid=grid):
                return _check_certificate(res, f, m, grid)
            ops.append(Op(f"certify_fuzzy_continuity {label}/{m.name} grid={grid:g}",
                          lambda f=f, m=m, grid=grid:
                          fm.certify_fuzzy_continuity(m, f, 0.2, 1.0, grid), check_cert))

    eps_h = _near(rng, EPS, 0.005)
    inputs.append(eps_h)
    for m in (std, rphi):
        for grid in horizon_grids[m.name]:
            def check_h(res, results, m=m, grid=grid):
                return check_horizon(m, eps_h, grid, res)
            ops.append(Op(f"uniform_horizon {m.name} eps={eps_h:.4f} grid={grid:g}",
                          lambda m=m, grid=grid: fm.uniform_horizon(m, eps_h, grid), check_h))

    ratio = fm.RatioFuzzyMetric()
    for grid in modulus_grids:
        def check_ratio(res, results, grid=grid):
            pts = e43.grid(grid)
            img = np.array([e43.eval(float(p)) for p in pts])
            lhs = np.minimum.outer(img, img) / np.maximum.outer(img, img)
            rhs = np.minimum.outer(pts, pts) / np.maximum.outer(pts, pts)
            return _check_modulus(res, lhs - 0.1 * rhs)

        def check_dom(res, results, grid=grid):
            pts = e43.grid(grid)
            gi = np.array([g.eval(float(p)) for p in pts])
            fi = np.array([e43.eval(float(p)) for p in pts])
            lhs = np.where(gi[:, None] == gi[None, :], 1.0,
                           np.minimum.outer(gi, gi) / np.maximum.outer(gi, gi))
            rhs = np.where(fi[:, None] == fi[None, :], 1.0,
                           np.minimum.outer(fi, fi) / np.maximum.outer(fi, fi))
            return _check_modulus(res, lhs - 0.5 * rhs)

        ops.append(Op(f"check_ratio_modulus example43 grid={grid:g}",
                      lambda grid=grid: fm.check_ratio_modulus(e43, 0.1, grid), check_ratio))
        ops.append(Op(f"check_metric_domination g:1/256 grid={grid:g}",
                      lambda grid=grid: fm.check_metric_domination(ratio, g, e43, 0.5, 1.0, grid),
                      check_dom))
    sizes = {"maps": [c[0] + "/" + c[2].name for c in configs],
             "chain_grids": {c[0]: list(c[3]) for c in configs}, "chain_n_max": 64,
             "horizon_grids": {k: list(v) for k, v in horizon_grids.items()},
             "certify_grids": [1e-2, 1e-3], "modulus_grids": list(modulus_grids)}
    return Workload("chain-reach", ops, digest(inputs), sizes,
                    lambda: orbits.chain_mixing_check(0.2, 0.8, f2, std, delta, t0, 1e-2, 8))


def _check_probe(res, f, m, u, v, steps, resolution) -> list:
    """Recompute the present step counts by iterating each source point with
    the scalar path."""
    pts = m.grid(resolution)
    start = [float(p) for p in pts if m.eval(u.center, float(p), u.t) > 1.0 - u.radius]
    present = set()
    for p in start:
        for n in range(1, steps + 1):
            p = f.eval(p)
            if m.eval(v.center, p, v.t) > 1.0 - v.radius:
                present.add(n)
    if tuple(sorted(present)) != tuple(res.present):
        return [f"probe reports {len(res.present)} step counts, scalar recount {len(present)}"]
    return []


def _check_certificate(cert, f, m, resolution) -> list:
    """No grid pair within the premise radius maps outside the image radius."""
    if not cert.holds:
        return []
    pts = m.grid(resolution)
    imgs = np.array([f.eval(float(p)) for p in pts])
    image_bad = m.eval_array(imgs[:, None], imgs[None, :], cert.t) <= 1.0 - cert.eps
    source_near = m.eval_array(pts[:, None], pts[None, :], cert.t_prime) > 1.0 - cert.delta
    if np.any(image_bad & source_near):
        return ["continuity certificate admits an offending pair"]
    return []


def _check_modulus(report, margin) -> list:
    worst = float(margin.min())
    if report.worst_margin != worst or report.passed != (worst > 0.0):
        return [f"modulus margin {report.worst_margin!r}, recomputed {worst!r}"]
    return []


# -- orbit-stream -------------------------------------------------------------------------


def orbit_stream(seed: int, quick: bool) -> Workload:
    rng = np.random.default_rng(seed)
    std = fm.StandardFuzzyMetric()
    fs, f2 = systems.tent(math.sqrt(2)), systems.tent(2.0)
    n = 10**4 if quick else 10**5  # scalar-path sequences: orbit, ns_set, CSV
    n_long = 10**5 if quick else 10**6  # batch-path sequences
    k = 4
    noise, delta, t0 = 0.01, 0.01, 1.0
    x0 = float(rng.uniform(0.2, 0.8))
    orbit_seed = _rng_seed(rng)
    x, y = float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.6, 0.9))
    power_states = orbits.OrbitSequence(rng.uniform(0.0, 1.0, n_long // k))
    Path("inputs").mkdir(exist_ok=True)
    csv_path = "inputs/stream.csv"
    # later operations read the sequences the generating operations made
    made = {}

    def generate(key, fn):
        def run():
            made[key] = fn()
            return made[key]
        return run

    def check_generated(seq, results):
        states = seq.states
        if len(states) != n + 1 or states[0] != x0:
            return ["perturbed orbit has the wrong length or start"]
        if np.any(states < 0.0) or np.any(states > 1.0):
            return ["perturbed orbit leaves the domain"]
        for i in range(n):
            if not abs(float(states[i + 1]) - fs.eval(float(states[i]))) <= noise:
                return [f"step {i} moves further than the noise"]
        return []

    def check_transitivity(seq, results):
        if len(seq) != n_long or seq[0] != x:
            return ["transitivity orbit has the wrong length or start"]
        return _check_skeleton(seq, f2, std, delta, t0)

    def check_power(seq, results):
        out = seq.states
        if out.size != k * len(power_states):
            return ["interleaved sequence has the wrong length"]
        for i in _sample(len(power_states)).tolist():
            v = float(power_states[i])
            for l in range(k):
                if out[k * i + l] != v:
                    return [f"entry {k * i + l} is not f^{l}(x_{i})"]
                v = fs.eval(v)
        return []

    def check_valid(res, results):
        states = made["long"].states
        skeleton = orbits.transitivity_skeleton(n_long)
        problems = [] if res.issubset(skeleton) else ["violations outside the skeleton"]
        return problems + _check_validator(res, states, f2, std, delta, t0, _sample(n_long - 1))

    def check_classical(res, results):
        states = made["power"].states
        reported = set(res.indices.tolist())
        for i in np.union1d(res.indices[:1000], _sample(n_long - 1)).tolist():
            violated = not abs(fs.eval(float(states[i])) - float(states[i + 1])) < delta
            if violated != (i in reported):
                return [f"transition {i}: reported {i in reported}, recomputed {violated}"]
        return []

    def npo_density():
        iset = orbits.npo_set(made["long"], f2, std, delta, t0)
        return iset, orbits.density(iset)

    def check_npo_density(res, results):
        iset, report = res
        problems = check_density(report, iset)
        if not report.plausibly_zero:
            problems.append("interleaving violations do not have density zero")
        return problems

    def check_ns(res, results):
        states = made["seq"].states
        traced = scalar_orbit(fs, x0, states.size)
        bad = np.flatnonzero(std.eval_array(traced, states, t0) <= 1.0 - EPS)
        return [] if np.array_equal(bad, res.indices) else ["ns_set differs from the scalar trace"]

    def skeleton_density():
        iset = orbits.IndexSet(orbits.transitivity_skeleton(n_long), universe=n_long)
        return iset, orbits.density(iset)

    def check_skeleton_density(res, results):
        iset, report = res
        ks = np.arange(math.isqrt(n_long) + 2)
        expect = np.unique(np.concatenate([ks * (ks + 1), (ks + 1) ** 2]))
        if not np.array_equal(iset.indices, expect[expect < n_long]):
            return ["skeleton differs from a_k = k(k+1), b_k = (k+1)^2"]
        return check_density(report, iset)

    def write_csv():
        made["seq"].to_csv(csv_path)
        return Path(csv_path).stat().st_size

    def check_read(seq, results):
        ok = np.array_equal(seq.states, made["seq"].states)
        return [] if ok else ["CSV round trip changed the orbit"]

    ops = [
        Op(f"perturbed_orbit n={n}",
           generate("seq", lambda: orbits.perturbed_orbit(fs, x0, n, noise, seed=orbit_seed)),
           check_generated),
        Op(f"build_transitivity_orbit n={n_long}",
           generate("long", lambda: orbits.build_transitivity_orbit(x, y, f2, n_long)),
           check_transitivity),
        Op(f"interleave_for_power k={k} n={n_long}",
           generate("power", lambda: orbits.interleave_for_power(power_states, k, fs)),
           check_power),
        Op(f"validate_f_pseudo_orbit n={n_long}",
           lambda: orbits.validate_f_pseudo_orbit(made["long"], f2, std, delta, t0), check_valid),
        Op(f"classical_validate n={n_long}",
           lambda: orbits.classical_validate(made["power"], fs, delta), check_classical),
        Op(f"npo density n={n_long}", npo_density, check_npo_density),
        Op(f"ns_set n={n}", lambda: orbits.ns_set(made["seq"], x0, fs, std, EPS, t0), check_ns),
        Op(f"transitivity_skeleton density n={n_long}", skeleton_density, check_skeleton_density),
        Op(f"to_csv n={n}", write_csv),
        Op(f"from_csv n={n}", lambda: orbits.OrbitSequence.from_csv(csv_path), check_read),
    ]
    sizes = {"scalar_path_n": n, "batch_path_n": n_long, "power_k": k, "noise": noise}

    def warm():
        seq = orbits.perturbed_orbit(fs, x0, 100, noise, seed=orbit_seed)
        seq.to_csv("inputs/warm-up.csv")
        orbits.ns_set(orbits.OrbitSequence.from_csv("inputs/warm-up.csv"), x0, fs, std, EPS, t0)

    return Workload("orbit-stream", ops,
                    digest([x0, orbit_seed, x, y, power_states]), sizes, warm)


def _check_skeleton(seq, f, m, delta, t0) -> list:
    """Gluing violations of the interleaving sit on the skeleton (theorem 3.3)."""
    bad = orbits.validate_f_pseudo_orbit(seq, f, m, delta, t0)
    if not bad.issubset(orbits.transitivity_skeleton(len(seq))):
        return ["interleaving violations outside the skeleton"]
    return []


# -- entry points ---------------------------------------------------------------------------

_CONSTRUCTORS = {
    "paper-suite": paper_suite,
    "tracing-sweep": tracing_sweep,
    "chain-reach": chain_reach,
    "orbit-stream": orbit_stream,
}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Construct maps, metrics and seeded inputs for one workload.  Relative
    paths (inputs/, out/) resolve inside the current directory."""
    return _CONSTRUCTORS[name](seed, quick)


