"""Search verdicts, chains and length spectra pinned to recorded values, and
the fast kernels checked against the dense scans they replaced.

Witness verdicts are pinned to the values of the separate fuzzy and
classical searches that the shared survivor loop replaced, no-witness
verdicts to the evidence of the dense candidate x index score matrix, which
the survivor loop is also property-tested against.  Chains and length
spectra are pinned to the values of the exact reach intervals, and
property-tested against the grid transition graph they replaced, whose
spectrum they must contain; the closed-form uniform horizon must be at
least the grid-pair scan it replaced, the two modulus checks are tested
against the grid-pair scans they replaced, and the closed-form continuity
certificate against the grid pairs it must not admit and the grid
certificate it replaced."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import orbits, shadowing, systems
from exact_reference import ball_union, pl_map, point, reference_contains


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
        "worst_value": 0.8888887780243964, "grid": 0.001, "candidates": 1000, "eps": 0.2,
        "t0": 4.000000000000022, "mode": "fuzzy", "near_miss": None,
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
    # the horizon holds over the whole space, so no grid needs a larger one
    resolution = (m.hi - m.lo) / steps * jitter
    if m.name == "standard":
        assert _dense_horizon(m, eps, resolution) <= fm.uniform_horizon(m, eps)
    else:
        assert fm.uniform_horizon(m, eps) is None


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


# case: (chain_search states, chain_mixing_check(..., n_max=32) present, n0);
# the two narrow cases have no chain on their grids (the grid artefact the
# exact reach intervals removed)
CHAIN_PINS = {
    "tent2-up-coarse": ([0.2, 0.4, 0.8], [*range(3, 33)], 3),
    "tent2-up-fine-tight": ([0.2, 0.4, 0.8], [3, *range(5, 33)], 5),
    "tent2-down-fine": ([0.9, 0.1], [*range(2, 33)], 2),
    "tent2-edges-coarse-tight": ([0.05, 0.11595394736841909, 0.2375, 0.475, 0.95],
                                 [*range(5, 33)], 5),
    "tent2-narrow-coarse": ([0.3, 0.5993568497474764, 0.8015625, 0.396875, 0.79375, 0.4125,
                             0.825, 0.35, 0.7], [*range(9, 33)], 9),
    "sqrt2-up-coarse": ([0.2, 0.3321926604863742, 0.4935590024087009, 0.8],
                        [*range(4, 33)], 4),
    "sqrt2-core-fine-tight": ([0.3, 0.42426406871192845, 0.6], [*range(3, 33)], 3),
    "sqrt2-outward-fine": ([0.5, 0.8170551113500745, 0.14925645217058764,
                            0.10462051161054081, 0.05], [*range(5, 33)], 5),
    "sqrt2-narrow-coarse": ([0.45, 0.63733586478001, 0.5119739123934922,
                             0.6909018557031843, 0.43691648507217545, 0.6178932188134525,
                             0.5403805922287441, 0.65], [8, 10, 12, 14, 16, *range(18, 33)], 18),
    "e43-up-coarse": ([0.2, 0.30478768333332984, 0.3922387314814759, 0.4646880092592519,
                       0.524351414609045, 0.5902163065843473, 0.6861662665751989, 0.8],
                      [*range(8, 33)], 8),
    "e43-up-fine-tight": ([0.3, 0.3683041700982468, 0.422253121761775, 0.4647909766263358,
                           0.49828914189118845, 0.5246018748895174, 0.5640137904681647,
                           0.6237678861480134, 0.7102998960399146, 0.8222455046034158, 0.9],
                          [*range(11, 33)], 11),
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


def _grid_spectrum(x, y, f, m, delta, t0, resolution, n_max):
    """Chain lengths n <= n_max through the grid transition graph that chains
    used to run on: the nodes are the metric grid plus both ends, u -> v is an
    edge when M(f(u), v, t0) > 1 - delta, and each step is the dense frontier
    x nodes nearness matrix."""
    nodes = np.unique(np.concatenate([m.grid(resolution), [x, y]]))
    target = nodes == y
    reach = nodes == x
    present = []
    for n in range(1, n_max + 1):
        if reach[target].any():
            present.append(n)
        stepped = f.eval_array(nodes[reach])
        reach = (m.eval_array(stepped[:, None], nodes[None, :], t0) > 1.0 - delta).any(axis=0)
    return present


@st.composite
def _chain_inputs(draw):
    name = draw(st.sampled_from(fm.METRIC_NAMES))
    if name == "standard":
        f = draw(st.sampled_from([systems.tent(2.0), systems.tent(math.sqrt(2)),
                                  systems.tent(1.6), systems.example43_map()]))
        m = fm.StandardFuzzyMetric(lo_open=f.lo_open)
    else:
        f = systems.example43_map()  # the ratio metrics live on (0, 1]
        m = fm.metric_from_name(name)
    resolution = 1.0 / draw(st.integers(4, 60))
    # ends on the grid give the grid graph chains to find
    end = st.one_of(st.sampled_from(m.grid(resolution).tolist()),
                    st.floats(m.lo, m.hi, exclude_min=m.lo_open))
    return draw(end), draw(end), f, m, resolution


_CHAIN_N_MAX = 16


@settings(max_examples=200, deadline=None)
@example(case=(0.3, 0.7, systems.tent(2.0), fm.StandardFuzzyMetric(), 1e-2),
         delta=0.01, t0=0.1)  # tent2-narrow-coarse: no chain on the grid
@example(case=(0.25, 0.5, systems.example43_map(), fm.RatioPhiFuzzyMetric(), 1e-2),
         delta=0.05, t0=0.5)  # singleton balls
# float ties: each y sits inside the exact ball of a predecessor but outside
# its float ball, and the search used to return, or fail on, that chain
@example(case=(0.2, 0.5111111111111111, systems.tent(2.0), fm.StandardFuzzyMetric(), 1e-2),
         delta=0.1, t0=1.0)
@example(case=(0.25, 5e-324, systems.tent(2.0), fm.StandardFuzzyMetric(), 1e-2),
         delta=0.5, t0=0.5)
@example(case=(1.0, 5e-324, systems.example43_map(), fm.StandardFuzzyMetric(lo_open=True),
               1e-2), delta=0.5, t0=0.5)
@given(case=_chain_inputs(), delta=st.floats(0.005, 0.995), t0=st.floats(0.01, 4.0))
def test_reach_intervals_contain_grid_spectrum(case, delta, t0):
    x, y, f, m, resolution = case
    spectrum = orbits.chain_mixing_check(x, y, f, m, delta, t0, resolution, _CHAIN_N_MAX)
    grid = _grid_spectrum(x, y, f, m, delta, t0, resolution, _CHAIN_N_MAX)
    assert set(grid) <= set(spectrum.present)
    chain = orbits.chain_search(x, y, f, m, delta, t0, resolution, _CHAIN_N_MAX)
    if chain is None:
        assert spectrum.present == ()
        return
    assert len(chain) == spectrum.present[0]
    assert chain[0] == x and chain[len(chain) - 1] == y
    if len(chain) > 1:
        assert orbits.validate_f_pseudo_orbit(chain, f, m, delta, t0).is_empty


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
        cands, score = f.grid(resolution), orbits.fuzzy_score(f, m, draw(st.floats(0.01, 4.0)))
        floor = 1.0 - draw(st.floats(0.005, 0.995))
    # a start on the grid keeps some candidate alive past index 0
    x0 = draw(st.one_of(st.sampled_from(cands.tolist()),
                        st.floats(f.domain_lo, f.domain_hi, exclude_min=f.lo_open)))
    # long sequences let the scalar probes cross chunk boundaries and
    # leapfrog the survivor loop
    n = draw(st.one_of(st.integers(0, 14), st.integers(15, 300)))
    seq = orbits.perturbed_orbit(f, x0, n, draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1])),
                                 seed=draw(st.integers(0, 99)))
    return seq, f, cands, score, floor


# slope 21/20 below 20/21: nearby orbits part slowly
_SLOW = systems.IntervalMap((
    systems.Piece(Fraction(0), Fraction(20, 21), Fraction(21, 20), Fraction(0)),
    systems.Piece(Fraction(20, 21), Fraction(1), Fraction(-21), Fraction(21))),
    name="slow")
_STD = fm.StandardFuzzyMetric()
# in floats f(0.233) = -1.1e-16, outside the domain, where the scalar eval
# raises and eval_array extrapolates
_LEAKY = systems.IntervalMap((
    systems.Piece(Fraction(0), Fraction(233, 1000), Fraction(-2000, 699), Fraction(2, 3)),
    systems.Piece(Fraction(233, 1000), Fraction(241, 250), Fraction(2000, 2193),
                  Fraction(-466, 2193)),
    systems.Piece(Fraction(241, 250), Fraction(1), Fraction(-250, 27), Fraction(259, 27))),
    name="leaky")


# candidates at distance exactly eps from the one state die under "<= floor"
@example(case=(orbits.OrbitSequence(np.array([0.25])), systems.tent(2.0),
               systems.tent(2.0).grid(0.25), orbits.classical_score, -0.25))
# the least candidate alive at index 0 dies at index 48 and the one after it
# at 54, both past the first probe chunk; the witness is the true orbit's start
@example(case=(_SLOW.orbit(0.01, 299), _SLOW, _SLOW.grid(1 / 400), orbits.classical_score, -0.1))
# a probe whose float orbit leaves the domain gives up, and the loop drops
# the candidate where the score matrix does
@example(case=(orbits.OrbitSequence(np.array([0.233, 0.0, 0.2])), _LEAKY, np.array([0.233, 0.5]),
               orbits.classical_score, -0.1))
# at the uniform horizon every candidate traces
@example(case=(orbits.perturbed_orbit(systems.tent(2.0), 0.3, 299, 0.1, seed=3), systems.tent(2.0),
               _STD.grid(1 / 400),
               orbits.fuzzy_score(systems.tent(2.0), _STD, fm.uniform_horizon(_STD, 0.1)), 0.9))
# at resolution 1e-4 an index-0 run takes more than one search round; one
# case per score kind: a witness, the uniform horizon, a death at the last
# index, and an empty index-0 run
@example(case=(orbits.perturbed_orbit(systems.tent(math.sqrt(2)), 0.3, 20, 1e-2, seed=5),
               systems.tent(math.sqrt(2)), systems.tent(math.sqrt(2)).grid(1e-4),
               orbits.classical_score, -0.05))
@example(case=(orbits.perturbed_orbit(systems.tent(2.0), 0.3, 20, 0.1, seed=3), systems.tent(2.0),
               _STD.grid(1e-4),
               orbits.fuzzy_score(systems.tent(2.0), _STD, fm.uniform_horizon(_STD, 0.1)), 0.9))
@example(case=(orbits.perturbed_orbit(systems.example43_map(), 0.45, 20, 1e-2, seed=2),
               systems.example43_map(), systems.example43_map().grid(1e-4),
               orbits.fuzzy_score(systems.example43_map(), fm.RatioFuzzyMetric(), 1.0), 0.95))
@example(case=(orbits.perturbed_orbit(systems.example43_map(), 0.7312345, 20, 1e-2, seed=1),
               systems.example43_map(), systems.example43_map().grid(1e-4),
               orbits.fuzzy_score(systems.example43_map(), fm.RatioPhiFuzzyMetric(), 0.5), 0.9))
@settings(max_examples=300, deadline=None)
@given(case=_survivor_inputs())
def test_survivor_search_matches_dense_matrix(case):
    assert shadowing._survivor_search(*case) == _dense_survivors(*case)


def _counting(score):
    """score, wrapped to add the points it scores to the returned list."""
    counts = []

    def counted(x, y):
        counts.append(np.size(x))
        return score(x, y)
    return counted, counts


_RUN_GRIDS = (1 / 4, 1 / 10, 1e-2, 1e-3, 1e-4, 1e-5)


@st.composite
def _run_inputs(draw):
    name = draw(st.sampled_from(("classical", *fm.METRIC_NAMES)))
    f = systems.example43_map() if name in ("ratio", "ratio-phi") else systems.tent(2.0)
    cands = f.grid(draw(st.sampled_from(_RUN_GRIDS)))
    eps = draw(st.floats(0.005, 0.995))
    if name == "classical":
        return cands, _run_state(draw, f, cands), orbits.classical_score, -eps
    m = _STD if name == "standard" else fm.metric_from_name(name)
    # 5e-324 scales every ratio-phi score into the subnormals, where whole
    # stretches of the grid tie
    t0 = draw(st.one_of(st.floats(0.01, 4.0), st.just(5e-324) if name == "ratio-phi"
                        else st.just(fm.uniform_horizon(_STD, eps) if name == "standard" else 1.0)))
    return cands, _run_state(draw, f, cands), orbits.fuzzy_score(f, m, t0), 1.0 - eps


def _run_state(draw, f, cands):
    return draw(st.one_of(st.sampled_from(cands[[0, 1, cands.size // 2, -2, -1]].tolist()),
                          st.floats(f.domain_lo, f.domain_hi, exclude_min=f.lo_open)))


_E43 = systems.example43_map()


# a candidate at exactly the floor dies: the run is the state's grid point
@example(case=(systems.tent(2.0).grid(0.25), 0.25, orbits.classical_score, -0.25))
# the state on the grid: alone under ratio-phi below t0 = 1 - eps, inside a
# run under ratio
@example(case=(_E43.grid(1e-3), 0.501, orbits.fuzzy_score(_E43, fm.RatioPhiFuzzyMetric(), 0.5),
               0.5))
@example(case=(_E43.grid(1e-4), 0.5001, orbits.fuzzy_score(_E43, fm.RatioFuzzyMetric(), 1.0), 0.99))
# runs that reach either end of the grid
@example(case=(_STD.grid(1e-5), 0.01, orbits.fuzzy_score(systems.tent(2.0), _STD, 1.0), 0.9))
@example(case=(_E43.grid(1e-5), 0.999, orbits.fuzzy_score(_E43, fm.RatioFuzzyMetric(), 1.0), 0.9))
# the whole grid at the uniform horizon
@example(case=(_STD.grid(1e-5), 0.3,
               orbits.fuzzy_score(systems.tent(2.0), _STD, fm.uniform_horizon(_STD, 0.1)), 0.9))
# empty runs whose greatest score is tied: between the neighbours of the
# state at their geometric mean, and over a stretch of subnormal scores
@example(case=(_E43.grid(0.1), 0.7483314773547883,
               orbits.fuzzy_score(_E43, fm.RatioPhiFuzzyMetric(), 0.5), 0.5))
@example(case=(_E43.grid(1e-5), 0.6000012,
               orbits.fuzzy_score(_E43, fm.RatioPhiFuzzyMetric(), 5e-324), 0.5))
@settings(max_examples=200, deadline=None)
@given(case=_run_inputs())
def test_index0_run_matches_dense_mask(case):
    cands, s, score, floor = case
    vals = score(cands, s)
    alive = np.flatnonzero(vals > floor)
    counted, counts = _counting(score)
    lo, hi, near = shadowing._index0_run(cands, s, counted, floor)
    assert np.array_equal(np.arange(lo, hi), alive)
    if alive.size:
        assert near is None
    else:
        j = int(np.argmax(vals))
        assert near == (j, float(vals[j]))
    # never more points than the dense step scored, and at most 2 + 2 x (64 +
    # 64 + 25) on grids of up to 100 001 points
    assert sum(counts) <= min(cands.size, 308)


def test_index0_run_edge_cases_are_what_they_claim():
    # the examples above are only edge cases if these hold
    exact = orbits.classical_score(systems.tent(2.0).grid(0.25), 0.25)
    assert list(exact) == [-0.25, 0.0, -0.25, -0.5, -0.75]
    assert 0.501 in _E43.grid(1e-3) and 0.5001 in _E43.grid(1e-4)
    rphi = orbits.fuzzy_score(_E43, fm.RatioPhiFuzzyMetric(), 0.5)
    tie = rphi(_E43.grid(0.1), 0.7483314773547883)
    assert tie.max() <= 0.5 and np.count_nonzero(tie == tie.max()) == 2
    sub = orbits.fuzzy_score(_E43, fm.RatioPhiFuzzyMetric(), 5e-324)(_E43.grid(1e-5), 0.6000012)
    assert sub.max() <= 0.5 and np.count_nonzero(sub == sub.max()) > 1000
    ends = orbits.fuzzy_score(systems.tent(2.0), _STD, 1.0)(_STD.grid(1e-5), 0.01)
    assert ends[0] > 0.9 and ends[-1] <= 0.9
    horizon = orbits.fuzzy_score(systems.tent(2.0), _STD, fm.uniform_horizon(_STD, 0.1))
    assert (horizon(_STD.grid(1e-5), 0.3) > 0.9).all()


def test_a_search_dying_at_index_0_scores_a_sliver_of_the_grid():
    f = systems.example43_map()
    seq = orbits.perturbed_orbit(f, 0.7312345, 100, 1e-2, seed=1)
    cands = f.grid(1e-5)
    counted, counts = _counting(orbits.fuzzy_score(f, fm.RatioPhiFuzzyMetric(), 0.5))
    witness, index, _, _ = shadowing._survivor_search(seq, f, cands, counted, 0.9)
    assert witness is None and index == 0 and cands.size == 100_000
    # scoring index 0 densely took 100 000 points
    assert sum(counts) <= 2000


def test_a_witness_whose_float_orbit_leaves_the_domain_fails_verification():
    # the grid loop extrapolates f(0.233) = -1.1e-16 and keeps the
    # candidate; the scalar re-check cannot step it, which is a failed
    # verification, not bad input
    seq = orbits.OrbitSequence(np.array([0.233, 0.0, 2 / 3]))
    with pytest.raises(orbits.VerificationError, match="outside domain of leaky"):
        shadowing.classical_shadow_search(seq, _LEAKY, 0.001, 0.001)


@pytest.mark.parametrize("start", [0, 7, 8, 50, 299])
def test_trace_stops_exactly_at_violations(start):
    # chunks of 8, 32, 128, ... scalar steps: violations on both sides of
    # their boundaries, and none, which only the last chunk can confirm
    f = systems.tent(math.sqrt(2))
    states = f.orbit(0.3, 299).states[start:]
    x = float(states[0])
    scores = shadowing._trace(f, x, states, orbits.classical_score, -1e-9)
    assert np.array_equal(scores, np.zeros(states.size))
    violations = {0, 7, 8, 39, 40, 299 - start}
    for k in sorted(violations & set(range(states.size))):
        bad = states.copy()
        bad[k] += 0.5 if bad[k] < 0.5 else -0.5
        assert shadowing._trace(f, x, bad, orbits.classical_score, -1e-9) == f" at index {k}"


class _SkewedMap(systems.IntervalMap):
    """A map whose batch evaluation sends one state elsewhere than its
    scalar orbit does."""

    def __init__(self, base, x, image):
        super().__init__(base.pieces, base.lo_open, base.name)
        self.x, self.image = x, image

    def eval_array(self, xs):
        out = super().eval_array(xs)
        return np.where(xs == self.x, self.image, out)


def test_a_least_survivor_the_scalar_orbit_rejects_fails_verification():
    # the grid loop sends 0.25 to 0.5, the scalar orbit to 0.25 * 2 = 0.5 as
    # well, then 0.5 to 0.99 where the scalar orbit goes to 1.0; the first
    # probe fails at index 2 and the loop keeps 0.25 to the end
    f = _SkewedMap(systems.tent(2.0), 0.5, 0.99)
    seq = orbits.OrbitSequence(np.array([0.25, 0.5, 0.99, 0.02]))
    with pytest.raises(orbits.VerificationError,
                       match="^witness re-verification failed at index 2$"):
        shadowing.classical_shadow_search(seq, f, 0.005, 0.25)


class _CountingMap(systems.IntervalMap):
    """Counts the map points evaluated: scalar, orbit steps and batch."""

    points = 0

    def eval(self, x):
        self.points += 1
        return super().eval(x)

    def states(self, x, n):
        self.points += max(n - 1, 0)
        return super().states(x, n)

    def eval_array(self, xs):
        out = super().eval_array(xs)
        self.points += out.size
        return out


def test_witness_search_work_is_linear_when_every_candidate_traces():
    base = systems.tent(2.0)
    f = _CountingMap(base.pieces, base.lo_open, base.name)
    seq = orbits.perturbed_orbit(base, 0.3, 999, 0.05, seed=1)
    grid = _STD.grid(1e-4)
    verdict = shadowing.shadow_search(seq, f, _STD, 0.1, fm.uniform_horizon(_STD, 0.1), 1e-4)
    assert verdict.witness == 0.0 and verdict.candidates == grid.size == 10001
    # stepping every candidate to the end would take 999 x 10001 points;
    # the witness's one scalar check takes 999
    assert f.points <= len(seq)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_evidence_matches_dense_matrix(case):
    seq, f, m, eps, t0, grid = _searches()[case]
    if m is None:
        witness, index, value, near = _dense_survivors(seq, f, f.grid(grid),
                                                       orbits.classical_score, -eps)
        value = 0.0 - value
    else:
        witness, index, value, near = _dense_survivors(seq, f, f.grid(grid),
                                                       orbits.fuzzy_score(f, m, t0), 1.0 - eps)
    pin = PINNED[case]
    assert json.dumps([witness, index, value, near]) == json.dumps(
        [pin["witness"], pin["worst_index"], pin["worst_value"], pin["near_miss"]])


# -- grid-pair checks against the full N x N scans ----------------------------------


def _dense_certificate(m, f, eps, t, resolution):
    """The grid certificate the closed form replaced, as its (delta, t'):
    every image pair at t, then every source pair at each candidate horizon;
    (None, None) when no candidate admits a delta."""
    pts = m.grid(resolution)
    imgs = f.eval_array(pts)
    bad = m.eval_array(imgs[:, None], imgs[None, :], t) <= 1.0 - eps
    if not bad.any():
        return eps, t
    for t_prime in (t, *fm.HORIZON_LADDER):
        worst = float(m.eval_array(pts[:, None], pts[None, :], t_prime)[bad].max())
        if worst < 1.0:
            return min(eps, 1.0 - worst), t_prime
    return None, None


def _dense_modulus(pts, lhs, rhs, factor):
    """The full margin matrix and its row-major first minimiser."""
    margin = lhs - factor * rhs
    i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
    return fm.ModulusReport(bool(margin[i, j] > 0.0), int(margin.size), factor,
                            float(margin[i, j]), {"x": float(pts[i]), "y": float(pts[j])})


def _dense_ratio_modulus(f, factor, resolution):
    pts = f.grid(resolution)
    img = f.eval_array(pts)
    lhs = np.minimum.outer(img, img) / np.maximum.outer(img, img)
    rhs = np.minimum.outer(pts, pts) / np.maximum.outer(pts, pts)
    return _dense_modulus(pts, lhs, rhs, factor)


def _dense_domination(m, g, f, factor, t, resolution):
    pts = f.grid(resolution)
    gi, fi = g.eval_array(pts), f.eval_array(pts)
    lhs = m.eval_array(gi[:, None], gi[None, :], t)
    rhs = m.eval_array(fi[:, None], fi[None, :], t)
    return _dense_modulus(pts, lhs, rhs, factor)


def _same(got, want):
    # compared as JSON text, so a -0.0 margin cannot pass for 0.0
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(want.to_dict(),
                                                                  sort_keys=True)


@st.composite
def _pl_maps(draw, nondecreasing=None):
    """A continuous piecewise-linear self-map of (0, 1], nondecreasing (with
    flat pieces) or not, as chosen or drawn."""
    if nondecreasing is None:
        nondecreasing = draw(st.booleans())
    cuts = draw(st.lists(st.integers(1, 999), max_size=5, unique=True))
    xs = [Fraction(0), *(Fraction(c, 1000) for c in sorted(cuts)), Fraction(1)]
    den = draw(st.sampled_from([8, 1000, 2**20]))
    values = [Fraction(v, den) for v in draw(st.lists(st.integers(1, den), min_size=len(xs),
                                                      max_size=len(xs)))]
    if nondecreasing:
        values.sort()
        flats = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        for k in range(1, len(values)):
            if flats[k]:
                values[k] = values[k - 1]
    return pl_map(xs, values, lo_open=True, name="pl")


_HALF_OPEN_MAPS = (systems.example43_map(), systems.perturbation_g(1.0 / 256.0))


@st.composite
def _certificate_inputs(draw):
    name = draw(st.sampled_from(fm.METRIC_NAMES))
    f = draw(st.one_of(st.sampled_from(_HALF_OPEN_MAPS), _pl_maps()) if name != "standard"
             else st.one_of(st.sampled_from([systems.tent(2.0), systems.tent(math.sqrt(2)),
                                             *_HALF_OPEN_MAPS]), _pl_maps()))
    m = (fm.StandardFuzzyMetric(lo_open=f.lo_open) if name == "standard"
         else fm.metric_from_name(name))
    return m, f, draw(st.floats(0.005, 0.995)), draw(st.floats(0.01, 8.0))


@settings(max_examples=150, deadline=None)
@given(case=_certificate_inputs(), steps=st.integers(100, 334))
def test_continuity_certificate_admits_no_offending_grid_pair(case, steps):
    # the float check of the benchmark's certificate ops, and never a delta
    # above the grid's at the same horizon
    m, f, eps, t = case
    cert = fm.certify_fuzzy_continuity(m, f, eps, t, 1.0 / steps)
    assert cert.holds and cert.t_prime == t
    pts = m.grid(1.0 / steps)
    imgs = f.eval_array(pts)
    offending = m.eval_array(imgs[:, None], imgs[None, :], t) <= 1.0 - eps
    admitted = m.eval_array(pts[:, None], pts[None, :], t) > 1.0 - cert.delta
    assert not (offending & admitted).any()
    delta, t_prime = _dense_certificate(m, f, eps, t, 1.0 / steps)
    if t_prime == t:
        assert 0.0 < cert.delta <= delta


@settings(max_examples=150, deadline=None)
@given(case=_certificate_inputs(), data=st.data())
def test_continuity_certificate_holds_on_the_continuum(case, data):
    # exactly: the delta-ball of x within the domain maps into the eps-ball
    # of f(x), at every knot and at random rationals of the domain
    m, f, eps, t = case
    cert = fm.certify_fuzzy_continuity(m, f, eps, t)
    lo, hi = f.knots[0], f.knots[-1]
    xs = [x for x in f.knots if reference_contains(f.domain, x)] + [
        lo + (hi - lo) * Fraction(k, 10**6)
        for k in data.draw(st.lists(st.integers(1, 10**6), min_size=30, max_size=30))]
    for x in xs:
        image = f.image(ball_union(m, point(x), cert.delta, t) & f.domain)
        target = ball_union(m, point(f.value(x)), eps, t)
        assert image & target == image, (x, image, target)


def test_continuity_certificate_values():
    # tent:2 under the standard metric: L = 2, exactly 1/9 at eps = 1/5;
    # example43 under ratio-phi: K = 3/2, exactly eps/K; both a few ulp below
    cert = fm.certify_fuzzy_continuity(fm.StandardFuzzyMetric(), systems.tent(2.0), 0.2, 1.0)
    assert 1 / 9 - 1e-14 < cert.delta < 1 / 9
    cert = fm.certify_fuzzy_continuity(fm.RatioPhiFuzzyMetric(), systems.example43_map(),
                                       0.2, 1.0)
    assert 0.2 / 1.5 - 1e-14 < cert.delta < 0.2 / 1.5


def test_continuity_certificate_fails_where_float_errors_swamp_eps():
    cert = fm.certify_fuzzy_continuity(fm.StandardFuzzyMetric(), systems.tent(2.0), 0.2, 1e-300)
    assert not cert.holds and cert.delta is None and cert.t_prime is None


_FACTORS = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 2.0]), st.floats(0.01, 2.0))


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(st.sampled_from(_HALF_OPEN_MAPS), _pl_maps()), factor=_FACTORS,
       steps=st.integers(20, 400))
def test_ratio_modulus_matches_dense_scan(f, factor, steps):
    _same(fm.check_ratio_modulus(f, factor, 1.0 / steps),
          _dense_ratio_modulus(f, factor, 1.0 / steps))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(fm.METRIC_NAMES),
       g=st.one_of(st.sampled_from(_HALF_OPEN_MAPS), _pl_maps()),
       f=st.one_of(st.sampled_from(_HALF_OPEN_MAPS), _pl_maps()),
       factor=_FACTORS, t=st.floats(0.05, 4.0), steps=st.integers(20, 400))
def test_metric_domination_matches_dense_scan(name, g, f, factor, t, steps):
    m = (fm.StandardFuzzyMetric(lo_open=True) if name == "standard"
         else fm.metric_from_name(name))
    _same(fm.check_metric_domination(m, g, f, factor, t, 1.0 / steps),
          _dense_domination(m, g, f, factor, t, 1.0 / steps))


def test_modulus_tie_rule():
    # the least margin 1/2 - 1 sits on (0, 7) and (3, 4): |g| differs by 1
    # and f ties on both; the full scan reports the row-major first, (0, 7)
    grid = [Fraction(k, 8) for k in range(9)]

    def pl(values):
        pieces = []
        for lo, hi, a, b in zip(grid, grid[1:], values, values[1:]):
            slope = (b - a) / (hi - lo)
            pieces.append(systems.Piece(lo, hi, slope, a - slope * lo))
        return systems.IntervalMap(pieces, name="pl")

    g = pl([Fraction(v, 4) for v in (0, 2, 2, 0, 4, 2, 2, 4, 2)])
    f = pl([Fraction(v, 4) for v in (0, 1, 3, 2, 2, 1, 3, 0, 1)])
    m = fm.StandardFuzzyMetric()
    report = fm.check_metric_domination(m, g, f, 1.0, 1.0, 0.125)
    assert report.worst_margin == -0.5 and report.worst_pair == {"x": 0.0, "y": 0.875}
    _same(report, _dense_domination(m, g, f, 1.0, 1.0, 0.125))


# 1/2 + x/2**52 rounds to three floats, so f ties on runs that start inside its piece
_NEAR_FLAT = systems.IntervalMap([systems.Piece(Fraction(0), Fraction(1), Fraction(1, 2**52),
                                                Fraction(1, 2))], lo_open=True, name="near-flat")


# x/3 over x is 1 up to rounding, so the least margin sits inside the rows
_THIRD = systems.IntervalMap([systems.Piece(Fraction(0), Fraction(1), Fraction(1, 3),
                                            Fraction(0))], lo_open=True, name="third")


@example(name="ratio-phi", g=_HALF_OPEN_MAPS[0], f=_NEAR_FLAT, factor=1.0, t=0.25, steps=100)
@example(name="ratio", g=_THIRD, f=None, factor=1.0, t=1.0, steps=100)
@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(("ratio", "ratio-phi")),
       g=st.one_of(st.sampled_from(_HALF_OPEN_MAPS), _pl_maps(nondecreasing=True)),
       f=st.one_of(st.sampled_from([*_HALF_OPEN_MAPS, _NEAR_FLAT, None]),
                   _pl_maps(nondecreasing=True)),
       factor=_FACTORS, t=st.floats(0.05, 4.0), steps=st.integers(20, 400))
def test_margin_lower_bounds_hold_on_every_row(name, g, f, factor, t, steps):
    """Each row's bound lies below the least margin of its columns i <= j,
    and the least evaluated margin is a margin; f None is the identity.  A
    bound is refused only for float images that decrease somewhere."""
    m = fm.metric_from_name(name)
    pts = (f or g).grid(1.0 / steps)
    upper, lower = (g.eval_array(pts), g), (pts if f is None else f.eval_array(pts), f)

    def margins(rows, cols):
        return (m.eval_array(upper[0][rows], upper[0][cols], t)
                - factor * m.eval_array(lower[0][rows], lower[0][cols], t))

    bounds = fm._margin_lower_bounds(m, pts, upper, lower, factor, margins)
    if bounds is None:
        # rounding at a piece change can make the float images of a
        # nondecreasing map fall by an ulp; then every row is scanned
        assert any(np.any(np.diff(states) < 0.0) for states, _ in (upper, lower))
        return
    lowest, least = bounds
    rows = np.arange(pts.size)[:, None]
    dense = margins(rows, rows.T)
    assert least in dense
    dense[rows.T > rows] = np.inf
    assert np.all(lowest <= dense.min(axis=1))
