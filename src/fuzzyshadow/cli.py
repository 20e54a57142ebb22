"""Command-line front end.

Subcommands
-----------
check-metric NAME     axiom verdicts for a fuzzy metric under --tnorm
check-tnorm NAME      axiom verdicts for a t-norm
reproduce CASE        scripted scenario with an encoded expected verdict
shadow                tracing-witness search over an orbit file
chain                 chain search (and length spectrum) between two states
mix                   image-intersection probe between two balls
density               prefix-density report for a construction or orbit file
sweep                 tabulate orbit validity and witness verdicts over
                      (eps, delta, t0) combinations

Exit codes: 0 for found/pass, 1 for a negative verdict, 2 for usage errors,
including numeric parameters out of range and radii too small to decide in
floats, and 3 when a witness or a chain fails its independent re-check.
A radius (``--eps``, ``--delta`` and their lists) must exceed the metric's
float slack on the map at the horizon, and a chain's ``--delta`` 4 ulp(1)
plus twice that slack; the error line names the bound.
Reports are deterministic JSON (no timestamps); stdout carries one summary
line per run.  Map graphs are emitted as self-contained SVG.

``main`` parses with one parser, built on its first call and kept for the
life of the process, so a caller that runs several commands in one process
builds it once; ``build_parser`` still returns a fresh one.

``check-metric`` and ``check-tnorm`` read a proof table (``check_axioms``):
ratio and ratio-phi fail the triangle under minimum (exit 1), all else
passes.  Nothing is sampled; ``--samples`` and ``--seed`` stay, hidden,
type-checked and unused, only while ``perfbench/workloads.py`` passes them.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import fuzzy_metric as fm
from . import orbits, shadowing, systems, tnorm
from .reports import json_text

# -- small helpers ---------------------------------------------------------------


def _write(outdir: str, name: str, text: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    # a new file, not an old one truncated in place: on ext4, truncating
    # a file that holds data and writing it again costs three times as much
    target.unlink(missing_ok=True)
    target.write_text(text)
    return target


def _write_report(outdir: str, name: str, payload: dict) -> Path:
    return _write(outdir, name, json_text(payload))


def _density_csv(report: orbits.DensityReport) -> str:
    lines = ["n,density"]
    lines += [f"{n},{repr(d)}" for n, d in report.points]
    return "\n".join(lines) + "\n"


# -- SVG rendering -----------------------------------------------------------------


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c")
_SVG_SIZE, _SVG_MARGIN = 520, 45


def render_map_svg(entries) -> str:
    """Self-contained SVG graph of one or more interval maps over their domain.

    A continuous piecewise-linear map is affine between its breakpoints, so
    each map is drawn exactly as one polyline through its values at the
    domain ends and the interior breakpoints (at an open end, the limit), on
    a framed unit box with the diagonal dashed for reference.
    """
    size, margin = _SVG_SIZE, _SVG_MARGIN
    lo = min(e[1].domain_lo for e in entries)
    hi = max(e[1].domain_hi for e in entries)
    span = hi - lo
    inner = size - 2 * margin

    def px(x: float) -> float:
        return margin + (x - lo) / span * inner

    def py(y: float) -> float:
        return size - margin - (y - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{inner}" height="{inner}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
        f'<line x1="{px(lo):.2f}" y1="{py(lo):.2f}" x2="{px(hi):.2f}" y2="{py(hi):.2f}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="5,4"/>',
    ]
    for k, (label, m) in enumerate(entries):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = " ".join(f"{px(float(x)):.2f},{py(float(m.value(x))):.2f}" for x in m.knots)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.6"/>')
        parts.append(f'<text x="{margin + 8}" y="{margin + 16 + 15 * k}" '
                     f'font-family="monospace" font-size="12" fill="{color}">{label}</text>')
    for value in (lo, hi):
        parts.append(f'<text x="{px(value):.2f}" y="{size - margin + 16}" '
                     f'font-family="monospace" font-size="11" fill="#444444" '
                     f'text-anchor="middle">{value:g}</text>')
        parts.append(f'<text x="{margin - 8}" y="{py(value) + 4:.2f}" '
                     f'font-family="monospace" font-size="11" fill="#444444" '
                     f'text-anchor="end">{value:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- reproduce cases -----------------------------------------------------------------

# Shared scenario constants.  Derivations live next to their uses; every PASS
# below is recomputed from the library primitives on each run.
_EPS_FIFTH = 0.2
_CROSSING_DELTA = 0.01


def _case_example_4_1(seed: int) -> tuple[bool, dict, dict]:
    f = systems.tent(2.0)
    metric = fm.StandardFuzzyMetric()
    horizon = fm.uniform_horizon(metric, 0.1)
    orbit = orbits.perturbed_orbit(f, x0=0.3, n=1000, noise=0.05, seed=seed)
    valid = orbits.validate_f_pseudo_orbit(orbit, f, metric, 0.01, horizon).is_empty
    verdict = shadowing.shadow_search(orbit, f, metric, eps=0.1, t0=horizon)
    chain = orbits.chain_mixing_check(0.2, 0.8, f, metric, delta=0.1, t0=1.0, n_max=64)
    # exact float trajectories of the slope-2 tent map degenerate after ~53
    # doublings (finite binary mantissas), so the image probe stops at 48
    probe = shadowing.topological_mixing_probe(
        f, fm.Ball(0.2, 0.1, 1.0), fm.Ball(0.8, 0.1, 1.0), metric,
        n_max=48, resolution=1e-3)
    passed = (horizon is not None and valid and verdict.found
              and chain.n0 is not None and probe.n0 is not None)
    result = {
        "uniform_horizon": horizon,
        "pseudo_orbit_valid": valid,
        "shadow": verdict.to_dict(),
        "chain_mixing": chain.to_dict(),
        "topological_mixing": probe.to_dict(),
        "expected": "witness found and both mixing probes cofinite",
    }
    return passed, result, {"svg": [("tent:2", f)]}


def _case_remark_4_2(seed: int) -> tuple[bool, dict, dict]:
    metric = fm.StandardFuzzyMetric()
    betas = {"sqrt2": 2.0**0.5, "1.6": 1.6, "2": 2.0}
    per_beta = {}
    passed = True
    entries = []
    horizon = fm.uniform_horizon(metric, 0.1)
    for label, beta in betas.items():
        f = systems.tent(beta)
        orbit = orbits.perturbed_orbit(f, x0=0.3, n=1000, noise=0.05, seed=seed)
        verdict = shadowing.shadow_search(orbit, f, metric, eps=0.1, t0=horizon)
        ok = horizon is not None and abs(horizon - 9.0) <= 1e-6 and verdict.found
        passed = passed and ok
        per_beta[label] = {
            "uniform_horizon": horizon,
            "witness": verdict.witness,
            "ok": ok,
        }
        entries.append((f"tent:{label}", f))
    result = {"per_beta": per_beta,
              "expected": "uniform horizon near 9 and a witness for every slope"}
    return passed, result, {"svg": entries}


def _case_example_4_3a(seed: int) -> tuple[bool, dict, dict]:
    f = systems.example43_map()
    seq = shadowing.build_nonshadowable_orbit(_CROSSING_DELTA)
    valid = orbits.classical_validate(seq, f, _CROSSING_DELTA).is_empty
    verdict = shadowing.classical_shadow_search(seq, f, eps=0.125, resolution=1e-5)
    passed = valid and not verdict.found
    result = {
        "orbit_length": len(seq),
        "classically_valid": valid,
        "shadow": verdict.to_dict(),
        "expected": "valid crossing pseudo-orbit with no classical witness at eps=1/8",
    }
    return passed, result, {"svg": [("example43", f)]}


def _case_example_4_3b(seed: int) -> tuple[bool, dict, dict]:
    f = systems.example43_map()
    metric = fm.StandardFuzzyMetric()
    horizon = fm.uniform_horizon(metric, _EPS_FIFTH)
    seq = shadowing.build_nonshadowable_orbit(_CROSSING_DELTA)
    verdict = shadowing.shadow_search(seq, f, metric, eps=_EPS_FIFTH, t0=horizon)
    passed = horizon is not None and verdict.found
    result = {
        "uniform_horizon": horizon,
        "shadow": verdict.to_dict(),
        "expected": "the same crossing orbit is traced once the horizon flattens "
                    "the whole space",
    }
    return passed, result, {}


def _case_example_4_3c(seed: int) -> tuple[bool, dict, dict]:
    f = systems.example43_map()
    metric = fm.RatioPhiFuzzyMetric()
    modulus = fm.check_ratio_modulus(f, factor=0.1, resolution=1e-3)
    cert = fm.certify_fuzzy_continuity(metric, f, eps=_EPS_FIFTH, t=1.0)
    seq = shadowing.build_nonshadowable_orbit(_CROSSING_DELTA)
    valid = orbits.validate_f_pseudo_orbit(seq, f, metric, _CROSSING_DELTA, 1.0).is_empty
    searches = {}
    none_everywhere = True
    for t0 in (1.0, 2.0, 10.0):
        verdict = shadowing.shadow_search(seq, f, metric, eps=_EPS_FIFTH, t0=t0,
                                          resolution=1e-4)
        searches[f"t0={t0:g}"] = verdict.to_dict()
        none_everywhere = none_everywhere and not verdict.found
    passed = modulus.passed and cert.holds and valid and none_everywhere
    result = {
        "ratio_modulus": modulus.to_dict(),
        "continuity": cert.to_dict(),
        "pseudo_orbit_valid": valid,
        "shadow": searches,
        "expected": "continuity modulus holds but no witness traces the crossing orbit",
    }
    return passed, result, {"svg": [("example43", f)]}


def _case_example_4_3d(seed: int) -> tuple[bool, dict, dict]:
    f = systems.example43_map()
    metric = fm.RatioFuzzyMetric()
    cert = fm.certify_fuzzy_continuity(metric, f, eps=_EPS_FIFTH, t=1.0)
    seq = shadowing.build_nonshadowable_orbit(_CROSSING_DELTA)
    valid = orbits.validate_f_pseudo_orbit(seq, f, metric, _CROSSING_DELTA, 1.0).is_empty
    verdict = shadowing.shadow_search(seq, f, metric, eps=_EPS_FIFTH, t0=1.0,
                                      resolution=1e-4)
    passed = cert.holds and valid and not verdict.found
    result = {
        "continuity": cert.to_dict(),
        "pseudo_orbit_valid": valid,
        "shadow": verdict.to_dict(),
        "expected": "no witness under the bare ratio metric either",
    }
    return passed, result, {}


def _case_example_4_4(seed: int) -> tuple[bool, dict, dict]:
    alpha = 1.0 / 256.0
    f = systems.example43_map()
    g = systems.perturbation_g(alpha)
    metric = fm.RatioFuzzyMetric()
    sup_gap = float(systems.sup_distance(f, g))
    fixed = g.eval(0.5) == 0.5 and g.eval(1.0) == 1.0
    domination = fm.check_metric_domination(metric, g, f, factor=0.5, t=1.0,
                                            resolution=1e-3)
    seq = shadowing.build_nonshadowable_orbit(_CROSSING_DELTA, g)
    valid = orbits.validate_f_pseudo_orbit(seq, g, metric, _CROSSING_DELTA, 1.0).is_empty
    verdict = shadowing.shadow_search(seq, g, metric, eps=_EPS_FIFTH, t0=1.0,
                                      resolution=1e-4)
    passed = (fixed and sup_gap < alpha and domination.passed and valid
              and not verdict.found)
    result = {
        "alpha": alpha,
        "fixed_points_kept": fixed,
        "sup_gap": sup_gap,
        "domination": domination.to_dict(),
        "pseudo_orbit_valid": valid,
        "shadow": verdict.to_dict(),
        "expected": "perturbation stays within alpha, dominates at factor 1/2, "
                    "and still has no witness",
    }
    return passed, result, {"svg": [("example43", f), (f"g:{alpha:g}", g)]}


def _case_theorem_3_3_density(seed: int) -> tuple[bool, dict, dict]:
    n_total = 10**6
    skeleton = orbits.transitivity_skeleton(n_total)
    iset = orbits.IndexSet(skeleton, universe=n_total)
    report = orbits.density(iset)
    density_100 = iset.count_below(100) / 100
    density_final = report.final_density

    f = systems.tent(2.0)
    metric = fm.StandardFuzzyMetric()
    orbit = orbits.build_transitivity_orbit(0.3, 0.7, f, length=10**5)
    npo = orbits.npo_set(orbit, f, metric, delta=0.01, t0=1.0)
    subset = npo.issubset(orbits.transitivity_skeleton(len(orbit)))
    npo_report = orbits.density(npo)

    passed = (density_100 == 0.19 and density_final <= 0.003 and subset
              and report.plausibly_zero and npo_report.plausibly_zero)
    result = {
        "skeleton_density_100": density_100,
        "skeleton_density_final": density_final,
        "skeleton_report": report.to_dict(),
        "interleaved_npo_subset_of_skeleton": subset,
        "interleaved_report": npo_report.to_dict(),
        "expected": "skeleton density 0.19 at 100, below 0.003 at 1e6, and all "
                    "interleaving violations confined to the skeleton",
    }
    return passed, result, {"csv": report}


_CASE_HANDLERS = {
    "example-4.1": _case_example_4_1,
    "remark-4.2": _case_remark_4_2,
    "example-4.3a": _case_example_4_3a,
    "example-4.3b": _case_example_4_3b,
    "example-4.3c": _case_example_4_3c,
    "example-4.3d": _case_example_4_3d,
    "example-4.4": _case_example_4_4,
    "theorem-3.3-density": _case_theorem_3_3_density,
}
REPRODUCE_CASES = tuple(_CASE_HANDLERS)


# -- command handlers ------------------------------------------------------------------


def _cmd_check_metric(args) -> int:
    metric = fm.metric_from_name(args.name, tnorm.TNorm(args.tnorm))
    return _finish_check(args, fm.check_axioms(metric))


def _cmd_check_tnorm(args) -> int:
    t = tnorm.TNorm(args.name)
    return _finish_check(args, tnorm.check_axioms(t))


def _finish_check(args, report) -> int:
    payload = {"command": args.command, "report": report.to_dict()}
    path = _write_report(args.out, f"{args.command}-{args.name}.json", payload)
    status = "PASS" if report.all_passed else f"FAIL {report.failing()}"
    print(f"{args.command} {args.name}: {status} ({path})")
    return 0 if report.all_passed else 1


def _cmd_reproduce(args) -> int:
    handler = _CASE_HANDLERS[args.case]
    passed, result, artifacts = handler(args.seed)
    payload = {
        "command": "reproduce",
        "case": args.case,
        "seed": args.seed,
        "passed": passed,
        "result": result,
    }
    paths = [_write_report(args.out, f"{args.case}.json", payload)]
    if "svg" in artifacts:
        paths.append(_write(args.out, f"{args.case}.svg",
                            render_map_svg(artifacts["svg"])))
    if "csv" in artifacts:
        paths.append(_write(args.out, f"{args.case}-density.csv",
                            _density_csv(artifacts["csv"])))
    print(f"reproduce {args.case}: {'PASS' if passed else 'FAIL'} "
          f"({', '.join(str(p) for p in paths)})")
    return 0 if passed else 1


def _map_and_metric(args):
    """The map and the metric of a command.  The map's domain is the state
    space, where orbit states, grids and chains live; the metric only
    measures there, and the library checks that the domain lies inside the
    metric's space (the ratio metrics exclude 0, say)."""
    return systems.map_from_spec(args.map_spec), fm.metric_from_name(args.metric)


def _require_resolved(f, metric, t0: float, flag: str, radii) -> None:
    """Raise ValueError, so exit 2, on a radius the float predicates cannot
    decide: one at or below the metric's float slack on f at t0, where
    rounding alone can turn a verdict."""
    fm.require_map_in_space(f, metric)  # the slack is read on the metric's space
    slack = metric.float_slack(f, t0)
    for radius in radii:
        fm.require_resolved(flag, radius, slack,
                            f"the float slack of {metric.name} on {f.name} at t0 {t0!r}")


def _cmd_shadow(args) -> int:
    f, metric = _map_and_metric(args)
    _require_resolved(f, metric, args.t0, "--eps", [args.eps])
    seq = orbits.OrbitSequence.from_csv(args.orbit)
    verdict = shadowing.shadow_search(seq, f, metric, eps=args.eps, t0=args.t0,
                                      resolution=args.grid)
    payload = {
        "command": "shadow",
        "map": args.map_spec,
        "metric": args.metric,
        "orbit": args.orbit,
        **verdict.to_dict(),
    }
    path = _write_report(args.out, "shadow.json", payload)
    print(f"shadow {args.map_spec}/{args.metric}: "
          f"{'witness ' + repr(verdict.witness) if verdict.found else 'no witness'} ({path})")
    return 0 if verdict.found else 1


def _cmd_chain(args) -> int:
    f, metric = _map_and_metric(args)
    for flag, x in (("--from", args.src), ("--to", args.dst)):
        if not f.contains(x):
            raise ValueError(f"{flag} {x!r} outside domain of {f.name}")
    if args.lengths:  # one pass over the reach sets serves both
        chain, mixing = orbits.chain_with_lengths(args.src, args.dst, f, metric, delta=args.delta,
                                                  t0=args.t0, n_max=args.n_max)
    else:
        chain = orbits.chain_search(args.src, args.dst, f, metric, delta=args.delta,
                                    t0=args.t0, n_max=args.n_max)
        mixing = None
    payload = {
        "command": "chain",
        "map": args.map_spec,
        "metric": args.metric,
        "from": args.src,
        "to": args.dst,
        "delta": args.delta,
        "t0": args.t0,
        "found": chain is not None,
        "length": None if chain is None else len(chain),
        "states": None if chain is None else chain.states.tolist(),
        "length_spectrum": None if mixing is None else mixing.to_dict(),
    }
    path = _write_report(args.out, "chain.json", payload)
    print(f"chain {args.src:g}->{args.dst:g}: "
          f"{'length ' + str(len(chain)) if chain is not None else 'none'} ({path})")
    return 0 if chain is not None else 1


def _cmd_mix(args) -> int:
    f, metric = _map_and_metric(args)
    _require_resolved(f, metric, args.t0, "--u-radius", [args.u_radius])
    _require_resolved(f, metric, args.t0, "--v-radius", [args.v_radius])
    u = fm.Ball(args.u_center, args.u_radius, args.t0)
    v = fm.Ball(args.v_center, args.v_radius, args.t0)
    report = shadowing.topological_mixing_probe(f, u, v, metric, n_max=args.n_max,
                                                resolution=args.grid)
    payload = {
        "command": "mix",
        "map": args.map_spec,
        "metric": args.metric,
        "t0": args.t0,
        "grid": args.grid,
        "u": {"center": args.u_center, "radius": args.u_radius},
        "v": {"center": args.v_center, "radius": args.v_radius},
        **report.to_dict(),
    }
    path = _write_report(args.out, "mix.json", payload)
    print(f"mix: {len(report.present)} step counts hit, onset {report.n0} ({path})")
    return 0 if report.present else 1


def _reject_flags(source: str, flags: dict) -> None:
    """Raise ValueError naming each flag given a value that source ignores."""
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        raise ValueError(f"density {source} does not take {', '.join(given)}")


def _cmd_density(args) -> int:
    # --n and --t0 default to None, so a flag given its default is still seen
    if args.construction is not None:
        _reject_flags("--construction", {"--map": args.map_spec, "--metric": args.metric,
                                         "--delta": args.delta, "--t0": args.t0})
        n = 10**6 if args.n is None else args.n
        skeleton = orbits.transitivity_skeleton(n)
        report = orbits.density(orbits.IndexSet(skeleton, universe=n))
        source = {"construction": args.construction, "n": n}
    else:
        _reject_flags("--orbit", {"--n": args.n})
        if None in (args.map_spec, args.metric, args.delta):
            raise ValueError("density --orbit needs --map, --metric and --delta")
        t0 = 1.0 if args.t0 is None else args.t0
        f, metric = _map_and_metric(args)
        _require_resolved(f, metric, t0, "--delta", [args.delta])
        seq = orbits.OrbitSequence.from_csv(args.orbit)
        iset = orbits.npo_set(seq, f, metric, delta=args.delta, t0=t0)
        report = orbits.density(iset)
        source = {"orbit": args.orbit, "map": args.map_spec, "metric": args.metric,
                  "delta": args.delta, "t0": t0}
    payload = {"command": "density", **source, "report": report.to_dict()}
    path = _write_report(args.out, "density.json", payload)
    _write(args.out, "density.csv", _density_csv(report))
    print(f"density: final {report.final_density!r}, "
          f"{'plausibly zero' if report.plausibly_zero else 'not vanishing'} ({path})")
    return 0 if report.plausibly_zero else 1


def _cmd_sweep(args) -> int:
    f, metric = _map_and_metric(args)
    for t0 in args.t0s:
        _require_resolved(f, metric, t0, "--eps-list", args.epss)
        _require_resolved(f, metric, t0, "--delta-list", args.deltas)
    seq = orbits.OrbitSequence.from_csv(args.orbit)
    # a witness does not depend on delta, so each (eps, t0) is searched once
    witnesses = {}
    rows = []
    for delta in args.deltas:
        for t0 in args.t0s:
            valid = orbits.validate_f_pseudo_orbit(seq, f, metric, delta, t0).is_empty
            for eps in args.epss:
                if (eps, t0) not in witnesses:
                    witnesses[eps, t0] = shadowing.shadow_search(
                        seq, f, metric, eps=eps, t0=t0, resolution=args.grid).witness
                rows.append({
                    "delta": delta, "t0": t0, "eps": eps,
                    "orbit_valid": valid, "witness": witnesses[eps, t0],
                })
    payload = {"command": "sweep", "map": args.map_spec, "metric": args.metric,
               "orbit": args.orbit, "grid": args.grid, "rows": rows}
    path = _write_report(args.out, "sweep.json", payload)
    lines = ["delta,t0,eps,orbit_valid,witness"]
    lines += [f"{r['delta']!r},{r['t0']!r},{r['eps']!r},{int(r['orbit_valid'])},"
              f"{'' if r['witness'] is None else repr(r['witness'])}" for r in rows]
    _write(args.out, "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows ({path})")
    return 0


# -- parser ---------------------------------------------------------------------------


def _checked(convert, ok, what: str):
    """argparse type: ``convert`` the text, then require ``ok`` of the value."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _list_of(item):
    def parse(text: str) -> list:
        values = [item(v) for v in text.split(",") if v]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values
    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite positive number")
_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")


def _add_common(p: argparse.ArgumentParser, grid: float | None,
                *, metric_required: bool = True) -> None:
    p.add_argument("--map", dest="map_spec", required=metric_required,
                   help='map spec: "tent:<beta>" | "example43" | "g:<alpha>"')
    p.add_argument("--metric", required=metric_required,
                   choices=fm.METRIC_NAMES, help="fuzzy metric name")
    if grid is not None:
        p.add_argument("--grid", type=_POSITIVE, default=grid,
                       help=f"search grid resolution (default {grid:g})")
    p.add_argument("--out", default="out", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyshadow",
        description="Fuzzy-metric shadowing diagnostics for interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-metric", help="axiom verdicts for a fuzzy metric")
    p.add_argument("name", help="metric name")
    p.add_argument("--tnorm", default="product", choices=tnorm.KINDS)
    p.add_argument("--samples", type=_COUNT, help=argparse.SUPPRESS)  # unused
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)  # unused
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_check_metric)

    p = sub.add_parser("check-tnorm", help="axiom verdicts for a t-norm")
    p.add_argument("name", help="t-norm name")
    p.add_argument("--samples", type=_COUNT, help=argparse.SUPPRESS)  # unused
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)  # unused
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_check_tnorm)

    p = sub.add_parser("reproduce", help="run a scripted scenario")
    p.add_argument("case", choices=REPRODUCE_CASES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("shadow", help="tracing-witness search over an orbit file")
    _add_common(p, shadowing.DEFAULT_FUZZY_GRID)
    p.add_argument("--eps", type=_UNIT, required=True)
    p.add_argument("--t0", type=_POSITIVE, default=1.0)
    p.add_argument("--orbit", required=True, help='orbit CSV with header "index,value"')
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("chain", help="chain search between two states")
    _add_common(p, None)
    p.add_argument("--from", dest="src", type=_FINITE, required=True)
    p.add_argument("--to", dest="dst", type=_FINITE, required=True)
    p.add_argument("--delta", type=_UNIT, required=True)
    p.add_argument("--t0", type=_POSITIVE, default=1.0)
    p.add_argument("--n-max", dest="n_max", type=_COUNT, default=64,
                   help="longest chain length searched (default 64)")
    p.add_argument("--lengths", action="store_true",
                   help="also report which chain lengths exist")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("mix", help="ball-to-ball image intersection probe")
    _add_common(p, 1e-3)
    p.add_argument("--u-center", type=_FINITE, required=True)
    p.add_argument("--u-radius", type=_UNIT, required=True)
    p.add_argument("--v-center", type=_FINITE, required=True)
    p.add_argument("--v-radius", type=_UNIT, required=True)
    p.add_argument("--t0", type=_POSITIVE, default=1.0)
    p.add_argument("--n-max", dest="n_max", type=_COUNT, default=64)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("density", help="prefix-density report")
    _add_common(p, None, metric_required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--construction", choices=("theorem-3.3",), default=None)
    source.add_argument("--orbit", default=None)
    p.add_argument("--n", type=_COUNT, default=None,
                   help="construction universe length (default 1000000)")
    p.add_argument("--delta", type=_UNIT, default=None, help="orbit mode only")
    p.add_argument("--t0", type=_POSITIVE, default=None, help="orbit mode only (default 1.0)")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sweep", help="tabulate verdicts over parameter combinations")
    _add_common(p, shadowing.DEFAULT_FUZZY_GRID)
    p.add_argument("--orbit", required=True)
    p.add_argument("--eps-list", dest="epss", type=_list_of(_UNIT), required=True)
    p.add_argument("--delta-list", dest="deltas", type=_list_of(_UNIT), required=True)
    p.add_argument("--t0-list", dest="t0s", type=_list_of(_POSITIVE), default=(1.0,))
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, systems.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except orbits.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
