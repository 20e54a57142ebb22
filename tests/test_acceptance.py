"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import filecmp
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import orbits, shadowing, tnorm
from fuzzyshadow.cli import REPRODUCE_CASES, main
from fuzzyshadow.orbits import (
    IndexSet,
    OrbitSequence,
    build_transitivity_orbit,
    chain_mixing_check,
    classical_validate,
    density,
    interleave_for_power,
    ns_set,
    perturbed_orbit,
    transitivity_skeleton,
    validate_f_pseudo_orbit,
)
from fuzzyshadow.shadowing import (
    build_nonshadowable_orbit,
    classical_shadow_search,
    shadow_search,
)
from fuzzyshadow.systems import IteratedMap, example43_map, perturbation_g, tent

TOL = 1e-12


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS {description}")


def test_criterion_01_axiom_suites():
    with criterion(1, "axiom suites for all metrics and t-norms, < 5 s"):
        start = time.monotonic()
        for name in fm.METRIC_NAMES:
            report = fm.check_axioms(fm.metric_from_name(name), samples=10_000, seed=0)
            assert report.all_passed, (name, report.failing())
        for kind in tnorm.KINDS:
            report = tnorm.check_axioms(tnorm.TNorm(kind), samples=10_000, seed=0)
            assert report.all_passed, (kind, report.failing())
        assert time.monotonic() - start < 5.0


def test_criterion_02_residuation_solvers():
    with criterion(2, "residuation and square-root postconditions, 1e4 samples each"):
        rng = np.random.default_rng(42)
        for kind in tnorm.KINDS:
            t = tnorm.TNorm(kind)
            r1 = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
            r2 = r1 * rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
            r3 = t.residuate(r1, r2)
            assert np.all(t.apply(r1, r3) >= r2 - TOL)
            r4 = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
            r5 = t.square_root(r4)
            assert np.all(t.apply(r5, r5) >= r4 - TOL)


def test_criterion_03_discreteness_witness():
    with criterion(3, "ratio-phi half-horizon nearness never exceeds 1/2"):
        m = fm.RatioPhiFuzzyMetric()
        rng = np.random.default_rng(7)
        x = m.sample_states(rng, 1_000)
        y = m.sample_states(rng, 1_000)
        keep = x != y
        assert np.all(m.eval_array(x[keep], y[keep], 0.5) <= 0.5)
        ball = fm.Ball(float(x[0]), 0.5, 0.5)
        members = fm.ball_members(m, ball, y[y != ball.center])
        assert not members.any()


def test_criterion_04_tent_family():
    with criterion(4, "tent family: horizon 9, traced pseudo-orbit, chain mixing, < 30 s"):
        start = time.monotonic()
        metric = fm.StandardFuzzyMetric()
        for beta in (math.sqrt(2), 1.6, 2.0):
            f = tent(beta)
            horizon = fm.uniform_horizon(metric, 0.1, resolution=1e-2)
            assert horizon is not None
            assert 4.5 <= horizon <= 18.0  # one geometric rung around 9
            assert horizon == pytest.approx(9.0, abs=1e-6)

            seq = perturbed_orbit(f, 0.3, 1_000, noise=0.05, seed=int(beta * 100))
            assert validate_f_pseudo_orbit(seq, f, metric, 0.01, horizon).is_empty
            verdict = shadow_search(seq, f, metric, eps=0.1, t0=horizon,
                                    resolution=1e-4)
            assert verdict.found

            mixing = chain_mixing_check(0.2, 0.8, f, metric, delta=0.1, t0=1.0,
                                        resolution=1e-3, n_max=64)
            assert mixing.n0 is not None
        assert time.monotonic() - start < 30.0


def test_criterion_05_classical_non_shadowing():
    with criterion(5, "no classical witness at eps=1/8 for the crossing orbit"):
        f = example43_map()
        seq = build_nonshadowable_orbit(0.01)
        assert classical_validate(seq, f, 0.01).is_empty
        verdict = classical_shadow_search(seq, f, eps=0.125, resolution=1e-5)
        assert not verdict.found


def test_criterion_06_fuzzy_non_shadowing():
    with criterion(6, "ratio-phi: modulus holds, orbit valid, no witness at eps=1/5"):
        f = example43_map()
        metric = fm.RatioPhiFuzzyMetric()
        modulus = fm.check_ratio_modulus(f, factor=0.1, resolution=1e-3)
        assert modulus.passed and modulus.pairs == 1_000_000
        seq = build_nonshadowable_orbit(0.01)
        assert validate_f_pseudo_orbit(seq, f, metric, 0.01, 1.0).is_empty
        for t0 in (1.0, 2.0, 10.0):
            verdict = shadow_search(seq, f, metric, eps=0.2, t0=t0, resolution=1e-4)
            assert not verdict.found, t0


def test_criterion_07_perturbation():
    with criterion(7, "perturbation keeps fixed points, stays within alpha, "
                      "dominates at 1/2, no witness"):
        alpha = 1.0 / 256.0
        f = example43_map()
        g = perturbation_g(alpha)
        metric = fm.RatioFuzzyMetric()
        assert g.eval(0.5) == 0.5
        assert g.eval(1.0) == 1.0
        xs = g.grid(1e-5)
        assert float(np.max(np.abs(f.eval_array(xs) - g.eval_array(xs)))) < alpha
        domination = fm.check_metric_domination(metric, g, f, factor=0.5, t=1.0,
                                                resolution=1e-3)
        assert domination.passed and domination.pairs == 1_000_000
        seq = build_nonshadowable_orbit(0.01, g)
        assert validate_f_pseudo_orbit(seq, g, metric, 0.01, 1.0).is_empty
        verdict = shadow_search(seq, g, metric, eps=0.2, t0=1.0, resolution=1e-4)
        assert not verdict.found


def test_criterion_08_interleaving_skeleton():
    with criterion(8, "skeleton density 0.19 at 1e2 and <= 0.003 at 1e6, "
                      "violations confined to the skeleton"):
        skeleton = transitivity_skeleton(10**6)
        iset = IndexSet(skeleton, universe=10**6)
        assert iset.count_below(100) / 100 == 0.19
        assert density(iset).final_density <= 0.003

        f = tent(2.0)
        metric = fm.StandardFuzzyMetric()
        seq = build_transitivity_orbit(0.3, 0.7, f, length=10**5)
        violations = orbits.npo_set(seq, f, metric, delta=0.01, t0=1.0)
        assert violations.issubset(transitivity_skeleton(len(seq)))


def test_criterion_09_power_interleaving_counts():
    with criterion(9, "power-map tracing violations never outnumber the "
                      "interleaved base-map ones"):
        f = tent(2.0)
        metric = fm.StandardFuzzyMetric()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            length = int(rng.integers(10, 41))
            seq = OrbitSequence(rng.uniform(0.0, 1.0, size=length))
            x = float(rng.uniform(0.0, 1.0))
            for k in (2, 3, 5):
                fk = IteratedMap(f, k)
                ns_power = ns_set(seq, x, fk, metric, delta=0.2, t0=1.0)
                expanded = interleave_for_power(seq, k, f)
                ns_base = ns_set(expanded, x, f, metric, delta=0.2, t0=1.0)
                for n in range(1, length + 1):
                    assert ns_power.count_below(n) <= ns_base.count_below(k * n)


def test_criterion_10_bridge_agreement():
    with criterion(10, "standard-metric and classical validators/searchers agree "
                       "under the threshold translation"):
        f = tent(2.0)
        metric = fm.StandardFuzzyMetric()
        rng = np.random.default_rng(31)
        horizons = (0.5, 1.0, 9.0)
        for i in range(1_000):
            seq = OrbitSequence(rng.uniform(0.0, 1.0, size=30))
            delta = float(rng.uniform(0.02, 0.6))
            t0 = horizons[i % 3]
            fuzzy = validate_f_pseudo_orbit(seq, f, metric, delta, t0)
            classical = classical_validate(seq, f, fm.bridge_threshold(delta, t0))
            assert np.array_equal(fuzzy.indices, classical.indices)

        eps = 0.15
        eps_classical = fm.bridge_threshold(eps, 1.0)
        for i in range(1_000):
            seq = OrbitSequence(rng.uniform(0.0, 1.0, size=12))
            fuzzy = shadow_search(seq, f, metric, eps=eps, t0=1.0, resolution=1e-2)
            classical = classical_shadow_search(seq, f, eps=eps_classical,
                                                resolution=1e-2)
            assert fuzzy.found == classical.found
            if fuzzy.found:
                assert fuzzy.witness == classical.witness


def test_criterion_11_deterministic_reports(tmp_path):
    with criterion(11, "every scripted case writes byte-identical artifacts "
                       "on repeated runs"):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for case in REPRODUCE_CASES:
            assert main(["reproduce", case, "--out", str(first)]) == 0
            assert main(["reproduce", case, "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert filecmp.cmp(first / name, second / name, shallow=False), name
