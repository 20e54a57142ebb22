"""Verdicts pinned to the values of the separate fuzzy and classical searches
that the shared survivor loop replaced, chains and length spectra pinned to
the values of the dense frontier x nodes reach step, and the diameter-pair
uniform horizon and the interval reach runs against the dense scans they
replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import orbits, shadowing, systems


def _searches():
    t2, ts, e43 = systems.tent(2.0), systems.tent(math.sqrt(2)), systems.example43_map()
    std = fm.StandardFuzzyMetric()
    noisy = orbits.perturbed_orbit(t2, 0.3, 100, 0.05, seed=1)
    quiet = orbits.perturbed_orbit(ts, 0.3, 30, 1e-3, seed=2)
    walk = orbits.perturbed_orbit(ts, 0.3, 60, 1e-3, seed=4)
    rough = orbits.perturbed_orbit(ts, 0.3, 60, 1e-2, seed=4)
    cross = shadowing.build_nonshadowable_orbit(0.01)
    fixed = orbits.OrbitSequence(np.zeros(4))
    h = fm.uniform_horizon(fm.StandardFuzzyMetric(lo_open=True), 0.2)
    fuzzy, classical = shadowing.shadow_search, shadowing.classical_shadow_search
    return {
        "fuzzy-tent2-flat": lambda: fuzzy(noisy, t2, std, 0.1, 9.5, 1e-3),
        "fuzzy-tent2-tight": lambda: fuzzy(noisy, t2, std, 0.01, 0.5, 1e-3),
        "fuzzy-sqrt2-quiet": lambda: fuzzy(quiet, ts, std, 0.05, 0.1, 1e-4),
        "fuzzy-e43-ratio-phi": lambda: fuzzy(cross, e43, fm.RatioPhiFuzzyMetric(), 0.2, 1.0, 1e-3),
        "fuzzy-e43-ratio": lambda: fuzzy(cross, e43, fm.RatioFuzzyMetric(), 0.2, 1.0, 1e-3),
        "fuzzy-e43-standard": lambda: fuzzy(cross, e43, fm.StandardFuzzyMetric(lo_open=True),
                                            0.2, h, 1e-3),
        "classical-e43-crossing": lambda: classical(cross, e43, 0.125, 1e-4),
        "classical-tent2-noisy": lambda: classical(noisy, t2, 0.05, 1e-3),
        "classical-sqrt2-quiet": lambda: classical(quiet, ts, 0.05, 1e-4),
        "classical-fixed-point": lambda: classical(fixed, t2, 0.1, 1e-2),
        "classical-sqrt2-walk": lambda: classical(walk, ts, 0.1, 1e-3),
        "classical-sqrt2-rough": lambda: classical(rough, ts, 0.1, 1e-3),
        "classical-tent2-orbit": lambda: classical(t2.orbit(0.3, 20), t2, 0.01, 1e-3),
    }


PINNED = {
    "fuzzy-tent2-flat": {
        "verdict": "witness-found", "witness": 0.0, "worst_index": 52,
        "worst_value": 0.9047619047619048, "grid": 0.001, "candidates": 1001, "eps": 0.1,
        "t0": 9.5, "mode": "fuzzy", "near_miss": None,
    },
    "fuzzy-tent2-tight": {
        "verdict": "no-witness", "witness": None, "worst_index": 1,
        "worst_value": 0.9897419923841172, "grid": 0.001, "candidates": 1001, "eps": 0.01,
        "t0": 0.5, "mode": "fuzzy", "near_miss": 0.298,
    },
    "fuzzy-sqrt2-quiet": {
        "verdict": "no-witness", "witness": None, "worst_index": 3,
        "worst_value": 0.9499993862776588, "grid": 0.0001, "candidates": 10001, "eps": 0.05,
        "t0": 0.1, "mode": "fuzzy", "near_miss": 0.30110000000000003,
    },
    "fuzzy-e43-ratio-phi": {
        "verdict": "no-witness", "witness": None, "worst_index": 0, "worst_value": 0.8,
        "grid": 0.001, "candidates": 1000, "eps": 0.2, "t0": 1.0, "mode": "fuzzy",
        "near_miss": 0.2,
    },
    "fuzzy-e43-ratio": {
        "verdict": "no-witness", "witness": None, "worst_index": 0, "worst_value": 0.8,
        "grid": 0.001, "candidates": 1000, "eps": 0.2, "t0": 1.0, "mode": "fuzzy",
        "near_miss": 0.2,
    },
    "fuzzy-e43-standard": {
        "verdict": "witness-found", "witness": 0.001, "worst_index": 46,
        "worst_value": 0.8878922649482234, "grid": 0.001, "candidates": 1000, "eps": 0.2,
        "t0": 3.960000000000003, "mode": "fuzzy", "near_miss": None,
    },
    "classical-e43-crossing": {
        "verdict": "no-witness", "witness": None, "worst_index": 0, "worst_value": 0.125,
        "grid": 0.0001, "candidates": 10000, "eps": 0.125, "t0": None, "mode": "classical",
        "near_miss": 0.125,
    },
    "classical-tent2-noisy": {
        "verdict": "no-witness", "witness": None, "worst_index": 0,
        "worst_value": 0.050000000000000044, "grid": 0.001, "candidates": 1001, "eps": 0.05,
        "t0": None, "mode": "classical", "near_miss": 0.35000000000000003,
    },
    "classical-sqrt2-quiet": {
        "verdict": "no-witness", "witness": None, "worst_index": 0,
        "worst_value": 0.050000000000000044, "grid": 0.0001, "candidates": 10001,
        "eps": 0.05, "t0": None, "mode": "classical", "near_miss": 0.35000000000000003,
    },
    "classical-fixed-point": {
        "verdict": "witness-found", "witness": 0.0, "worst_index": 0, "worst_value": 0.0,
        "grid": 0.01, "candidates": 101, "eps": 0.1, "t0": None, "mode": "classical",
        "near_miss": None,
    },
    "classical-sqrt2-walk": {
        "verdict": "witness-found", "witness": 0.301, "worst_index": 51,
        "worst_value": 0.08495470380305137, "grid": 0.001, "candidates": 1001, "eps": 0.1,
        "t0": None, "mode": "classical", "near_miss": None,
    },
    "classical-sqrt2-rough": {
        "verdict": "no-witness", "witness": None, "worst_index": 0,
        "worst_value": 0.10000000000000003, "grid": 0.001, "candidates": 1001, "eps": 0.1,
        "t0": None, "mode": "classical", "near_miss": 0.4,
    },
    "classical-tent2-orbit": {
        "verdict": "witness-found", "witness": 0.3, "worst_index": 0, "worst_value": 0.0,
        "grid": 0.001, "candidates": 1001, "eps": 0.01, "t0": None, "mode": "classical",
        "near_miss": None,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_verdict_pinned(case):
    got = _searches()[case]().to_dict()
    # compared as JSON text, so a -0.0 distance cannot pass for 0.0
    assert json.dumps(got, sort_keys=True) == json.dumps(PINNED[case], sort_keys=True)


def _dense_horizon(m, eps, resolution):
    """The grid-pair scan: the least nearness over every pair of grid points."""
    pts = m.grid(resolution)
    target = 1.0 - eps

    def passes(t):
        return bool(np.min(m.eval_array(pts[:, None], pts[None, :], t)) > target)

    lo, hi = 0.0, None
    for rung in fm.HORIZON_LADDER:
        if passes(rung):
            hi = rung
            break
        lo = rung
    if hi is None:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _metrics(draw):
    name = draw(st.sampled_from(fm.METRIC_NAMES))
    if name != "standard":
        return fm.metric_from_name(name)
    lo = draw(st.floats(-3.0, 1.0))
    hi = lo + draw(st.floats(0.25, 4.0))
    return fm.StandardFuzzyMetric(lo=lo, hi=hi, lo_open=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(m=_metrics(), eps=st.floats(0.005, 0.995),
       steps=st.integers(1, 60), jitter=st.floats(0.5, 1.0))
def test_uniform_horizon_matches_dense_scan(m, eps, steps, jitter):
    resolution = (m.hi - m.lo) / steps * jitter
    assert fm.uniform_horizon(m, eps, resolution) == _dense_horizon(m, eps, resolution)


def _chains():
    t2, ts, e43 = systems.tent(2.0), systems.tent(math.sqrt(2)), systems.example43_map()
    std, rphi = fm.StandardFuzzyMetric(), fm.RatioPhiFuzzyMetric()
    # (x, y, map, metric, delta, t0, grid); ratio-phi at t0 = 0.5 with
    # delta <= 1/2 has singleton balls
    return {
        "tent2-up-coarse": (0.2, 0.8, t2, std, 0.1, 1.0, 1e-2),
        "tent2-up-fine-tight": (0.2, 0.8, t2, std, 0.05, 0.5, 1e-3),
        "tent2-down-fine": (0.9, 0.1, t2, std, 0.1, 1.0, 1e-3),
        "tent2-edges-coarse-tight": (0.05, 0.95, t2, std, 0.05, 0.5, 1e-2),
        "tent2-narrow-coarse": (0.3, 0.7, t2, std, 0.01, 0.1, 1e-2),
        "sqrt2-up-coarse": (0.2, 0.8, ts, std, 0.1, 1.0, 1e-2),
        "sqrt2-core-fine-tight": (0.3, 0.6, ts, std, 0.05, 0.5, 1e-3),
        "sqrt2-outward-fine": (0.5, 0.05, ts, std, 0.1, 1.0, 1e-3),
        "sqrt2-narrow-coarse": (0.45, 0.65, ts, std, 0.01, 0.1, 1e-2),
        "e43-up-coarse": (0.2, 0.8, e43, rphi, 0.1, 1.0, 1e-2),
        "e43-up-fine-tight": (0.3, 0.9, e43, rphi, 0.05, 2.0, 1e-3),
        "e43-down-fine": (0.9, 0.1, e43, rphi, 0.05, 1.0, 1e-3),
        "e43-singleton-coarse": (0.25, 0.5, e43, rphi, 0.05, 0.5, 1e-2),
        "e43-singleton-fine": (0.6, 0.9, e43, rphi, 0.3, 0.5, 1e-3),
    }


# case: (chain_search states, chain_mixing_check(..., n_max=32) present, n0)
CHAIN_PINS = {
    "tent2-up-coarse": ([0.2, 0.35000000000000003, 0.8], [*range(3, 33)], 3),
    "tent2-up-fine-tight": ([0.2, 0.387, 0.8], [3, *range(5, 33)], 5),
    "tent2-down-fine": ([0.9, 0.1], [*range(2, 33)], 2),
    "tent2-edges-coarse-tight": ([0.05, 0.11, 0.23, 0.47000000000000003, 0.95],
                                 [*range(5, 33)], 5),
    "tent2-narrow-coarse": (None, [], None),
    "sqrt2-up-coarse": ([0.2, 0.27, 0.49, 0.8], [*range(4, 33)], 4),
    "sqrt2-core-fine-tight": ([0.3, 0.406, 0.6], [*range(3, 33)], 3),
    "sqrt2-outward-fine": ([0.5, 0.8180000000000001, 0.147, 0.097, 0.05], [*range(5, 33)], 5),
    "sqrt2-narrow-coarse": (None, [], None),
    "e43-up-coarse": ([0.2, 0.29000000000000004, 0.38, 0.45, 0.51, 0.56, 0.65, 0.8],
                      [*range(8, 33)], 8),
    "e43-up-fine-tight": ([0.3, 0.333, 0.377, 0.429, 0.47000000000000003, 0.502, 0.528,
                           0.5690000000000001, 0.634, 0.737, 0.9], [*range(11, 33)], 11),
    "e43-down-fine": (None, [], None),
    "e43-singleton-coarse": (None, [], None),
    "e43-singleton-fine": (None, [], None),
}


@pytest.mark.parametrize("case", sorted(CHAIN_PINS))
def test_chain_pinned(case):
    x, y, f, m, delta, t0, grid = _chains()[case]
    states, present, n0 = CHAIN_PINS[case]
    chain = orbits.chain_search(x, y, f, m, delta, t0, grid)
    assert (None if chain is None else chain.states.tolist()) == states
    spectrum = orbits.chain_mixing_check(x, y, f, m, delta, t0, grid, 32)
    assert spectrum.to_dict() == {"present": present, "n_max": 32, "n0": n0}


def _dense_reach(m, stepped, nodes, t0, delta):
    """The frontier x nodes nearness matrix the reach step used to build."""
    return m.eval_array(stepped[:, None], nodes[None, :], t0) > 1.0 - delta


@st.composite
def _reach_inputs(draw):
    m = draw(_metrics())
    resolution = (m.hi - m.lo) / draw(st.integers(1, 60)) * draw(st.floats(0.5, 1.0))
    space = st.floats(m.lo, m.hi, exclude_min=m.lo_open)
    extra = draw(st.lists(space, max_size=8))
    nodes = np.unique(np.concatenate([m.grid(resolution), extra]))
    # stepped states that are nodes exercise exact hits and singleton balls
    stepped = draw(st.lists(st.one_of(st.sampled_from(nodes.tolist()), space),
                            min_size=1, max_size=12))
    return m, np.array(stepped), nodes


@settings(max_examples=200, deadline=None)
@example(case=(fm.RatioPhiFuzzyMetric(), np.array([0.25, 0.3, 0.3125]),
               np.linspace(0.0625, 1.0, 16)), delta=0.05, t0=0.5)
@example(case=(fm.RatioFuzzyMetric(), np.array([0.5]), np.linspace(0.0625, 1.0, 16)),
         delta=0.5, t0=1.0)  # nodes 0.25 and 1.0 sit at nearness exactly 1 - delta
@given(case=_reach_inputs(), delta=st.floats(0.005, 0.995), t0=st.floats(0.01, 4.0))
def test_reach_runs_match_dense_matrix(case, delta, t0):
    m, stepped, nodes = case
    lo, hi = orbits._reach_runs(stepped, nodes, m, t0, delta)
    dense = _dense_reach(m, stepped, nodes, t0, delta)
    idx = np.arange(nodes.size)
    for row, a, b in zip(dense, lo, hi):
        assert np.array_equal(row, (a <= idx) & (idx < b))
    assert np.array_equal(orbits._covered(lo, hi, nodes.size), dense.any(axis=0))
