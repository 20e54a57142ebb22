"""Search verdicts, chains and length spectra pinned to recorded values, and
the fast kernels checked against the dense scans they replaced.

Witness verdicts are pinned to the values of the separate fuzzy and
classical searches that the shared survivor loop replaced, no-witness
verdicts to the evidence of the dense candidate x index score matrix, which
the survivor loop is also property-tested against.  Chains and length
spectra are pinned to the values of the dense frontier x nodes reach step;
the diameter-pair uniform horizon and the interval reach runs are tested
against the dense scans they replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import orbits, shadowing, systems


def _searches():
    """case: (seq, map, metric or None for classical, eps, t0, grid)."""
    t2, ts, e43 = systems.tent(2.0), systems.tent(math.sqrt(2)), systems.example43_map()
    std = fm.StandardFuzzyMetric()
    noisy = orbits.perturbed_orbit(t2, 0.3, 100, 0.05, seed=1)
    quiet = orbits.perturbed_orbit(ts, 0.3, 30, 1e-3, seed=2)
    walk = orbits.perturbed_orbit(ts, 0.3, 60, 1e-3, seed=4)
    rough = orbits.perturbed_orbit(ts, 0.3, 60, 1e-2, seed=4)
    cross = shadowing.build_nonshadowable_orbit(0.01)
    fixed = orbits.OrbitSequence(np.zeros(4))
    h = fm.uniform_horizon(fm.StandardFuzzyMetric(lo_open=True), 0.2)
    return {
        "fuzzy-tent2-flat": (noisy, t2, std, 0.1, 9.5, 1e-3),
        "fuzzy-tent2-tight": (noisy, t2, std, 0.01, 0.5, 1e-3),
        "fuzzy-sqrt2-quiet": (quiet, ts, std, 0.05, 0.1, 1e-4),
        "fuzzy-e43-ratio-phi": (cross, e43, fm.RatioPhiFuzzyMetric(), 0.2, 1.0, 1e-3),
        "fuzzy-e43-ratio": (cross, e43, fm.RatioFuzzyMetric(), 0.2, 1.0, 1e-3),
        "fuzzy-e43-standard": (cross, e43, fm.StandardFuzzyMetric(lo_open=True), 0.2, h, 1e-3),
        "classical-e43-crossing": (cross, e43, None, 0.125, None, 1e-4),
        "classical-tent2-noisy": (noisy, t2, None, 0.05, None, 1e-3),
        "classical-sqrt2-quiet": (quiet, ts, None, 0.05, None, 1e-4),
        "classical-fixed-point": (fixed, t2, None, 0.1, None, 1e-2),
        "classical-sqrt2-walk": (walk, ts, None, 0.1, None, 1e-3),
        "classical-sqrt2-rough": (rough, ts, None, 0.1, None, 1e-3),
        "classical-tent2-orbit": (t2.orbit(0.3, 20), t2, None, 0.01, None, 1e-3),
    }


def _search(seq, f, m, eps, t0, grid):
    if m is None:
        return shadowing.classical_shadow_search(seq, f, eps, grid)
    return shadowing.shadow_search(seq, f, m, eps, t0, grid)


PINNED = {
    "fuzzy-tent2-flat": {
        "verdict": "witness-found", "witness": 0.0, "worst_index": 52,
        "worst_value": 0.9047619047619048, "grid": 0.001, "candidates": 1001, "eps": 0.1,
        "t0": 9.5, "mode": "fuzzy", "near_miss": None,
    },
    "fuzzy-tent2-tight": {
        "verdict": "no-witness", "witness": None, "worst_index": 2,
        "worst_value": 0.9281913234835582, "grid": 0.001, "candidates": 1001, "eps": 0.01,
        "t0": 0.5, "mode": "fuzzy", "near_miss": 0.299,
    },
    "fuzzy-sqrt2-quiet": {
        "verdict": "no-witness", "witness": None, "worst_index": 17,
        "worst_value": 0.9443740006633238, "grid": 0.0001, "candidates": 10001, "eps": 0.05,
        "t0": 0.1, "mode": "fuzzy", "near_miss": 0.29910000000000003,
    },
    "fuzzy-e43-ratio-phi": {
        "verdict": "no-witness", "witness": None, "worst_index": 25,
        "worst_value": 0.7751102075099623, "grid": 0.001, "candidates": 1000, "eps": 0.2,
        "t0": 1.0, "mode": "fuzzy", "near_miss": 0.312,
    },
    "fuzzy-e43-ratio": {
        "verdict": "no-witness", "witness": None, "worst_index": 25,
        "worst_value": 0.7751102075099623, "grid": 0.001, "candidates": 1000, "eps": 0.2,
        "t0": 1.0, "mode": "fuzzy", "near_miss": 0.312,
    },
    "fuzzy-e43-standard": {
        "verdict": "witness-found", "witness": 0.001, "worst_index": 46,
        "worst_value": 0.8878922649482234, "grid": 0.001, "candidates": 1000, "eps": 0.2,
        "t0": 3.960000000000003, "mode": "fuzzy", "near_miss": None,
    },
    "classical-e43-crossing": {
        "verdict": "no-witness", "witness": None, "worst_index": 25,
        "worst_value": 0.14498117600696603, "grid": 0.0001, "candidates": 10000,
        "eps": 0.125, "t0": None, "mode": "classical", "near_miss": 0.3749,
    },
    "classical-tent2-noisy": {
        "verdict": "no-witness", "witness": None, "worst_index": 7,
        "worst_value": 0.052452476272217496, "grid": 0.001, "candidates": 1001, "eps": 0.05,
        "t0": None, "mode": "classical", "near_miss": 0.28800000000000003,
    },
    "classical-sqrt2-quiet": {
        "verdict": "no-witness", "witness": None, "worst_index": 24,
        "worst_value": 0.06284480990016472, "grid": 0.0001, "candidates": 10001,
        "eps": 0.05, "t0": None, "mode": "classical", "near_miss": 0.3028,
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
        "verdict": "no-witness", "witness": None, "worst_index": 41,
        "worst_value": 0.12702111020109963, "grid": 0.001, "candidates": 1001, "eps": 0.1,
        "t0": None, "mode": "classical", "near_miss": 0.33,
    },
    "classical-tent2-orbit": {
        "verdict": "witness-found", "witness": 0.3, "worst_index": 0, "worst_value": 0.0,
        "grid": 0.001, "candidates": 1001, "eps": 0.01, "t0": None, "mode": "classical",
        "near_miss": None,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_verdict_pinned(case):
    got = _search(*_searches()[case]).to_dict()
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


def _dense_survivors(seq, f, cands, score, floor):
    """The full candidate x index score matrix, read the way the survivor
    loop reports: the smallest candidate that never dies, with its weakest
    step; otherwise the largest first-death index and the candidate with the
    highest score there, the smallest on ties."""
    states = seq.states
    X = np.empty((cands.size, states.size))
    X[:, 0] = cands
    for i in range(1, states.size):
        X[:, i] = f.eval_array(X[:, i - 1])
    scores = score(X, states[None, :])
    dead = scores <= floor
    alive = np.flatnonzero(~dead.any(axis=1))
    if alive.size:
        w = alive[0]
        k = int(np.argmin(scores[w]))
        return float(cands[w]), k, float(scores[w, k]), None
    first = dead.argmax(axis=1)
    i = int(first.max())
    last = np.flatnonzero(first == i)
    j = last[np.argmax(scores[last, i])]
    return None, i, float(scores[j, i]), float(cands[j])


@st.composite
def _survivor_inputs(draw):
    name = draw(st.sampled_from(("classical", *fm.METRIC_NAMES)))
    if name in ("ratio", "ratio-phi"):
        f = systems.example43_map()  # the ratio metrics live on (0, 1]
    else:
        f = draw(st.sampled_from([systems.tent(2.0), systems.tent(math.sqrt(2)),
                                  systems.tent(1.6), systems.example43_map()]))
    resolution = 1.0 / draw(st.integers(4, 400))
    if name == "classical":
        cands, score = f.grid(resolution), orbits.classical_score
        floor = -draw(st.floats(1e-3, 0.5))
    else:
        m = (fm.StandardFuzzyMetric(lo_open=f.lo_open) if name == "standard"
             else fm.metric_from_name(name))
        cands, score = m.grid(resolution), orbits.fuzzy_score(m, draw(st.floats(0.01, 4.0)))
        floor = 1.0 - draw(st.floats(0.005, 0.995))
    # a start on the grid keeps some candidate alive past index 0
    x0 = draw(st.one_of(st.sampled_from(cands.tolist()),
                        st.floats(f.domain_lo, f.domain_hi, exclude_min=f.lo_open)))
    seq = orbits.perturbed_orbit(f, x0, draw(st.integers(0, 14)),
                                 draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1])),
                                 seed=draw(st.integers(0, 99)))
    return seq, f, cands, score, floor


# candidates at distance exactly eps from the one state die under "<= floor"
@example(case=(orbits.OrbitSequence(np.array([0.25])), systems.tent(2.0),
               systems.tent(2.0).grid(0.25), orbits.classical_score, -0.25))
@settings(max_examples=300, deadline=None)
@given(case=_survivor_inputs())
def test_survivor_search_matches_dense_matrix(case):
    assert shadowing._survivor_search(*case) == _dense_survivors(*case)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_evidence_matches_dense_matrix(case):
    seq, f, m, eps, t0, grid = _searches()[case]
    if m is None:
        witness, index, value, near = _dense_survivors(seq, f, f.grid(grid),
                                                       orbits.classical_score, -eps)
        value = 0.0 - value
    else:
        witness, index, value, near = _dense_survivors(seq, f, m.grid(grid),
                                                       orbits.fuzzy_score(m, t0), 1.0 - eps)
    pin = PINNED[case]
    assert json.dumps([witness, index, value, near]) == json.dumps(
        [pin["witness"], pin["worst_index"], pin["worst_value"], pin["near_miss"]])
