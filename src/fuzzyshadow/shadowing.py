"""Witness searches for tracing properties, plus mixing probes.

All searches are exhaustive over an explicit grid of candidate start points,
f.grid(resolution) over the domain of the map f.  The domain is the state
space, and a fuzzy metric only measures on it: every fuzzy search and probe
first checks that the domain lies inside the metric's space.
A "no witness" verdict is therefore certified only relative to the stated
grid resolution, which every verdict records; refining the grid is the
validation knob.  Witness verdicts are re-verified index by index before
being returned.

The tracing verdicts are grid-exhaustive, but their work is not: the least
survivor is run ahead on its own, and once it reaches the end of the
sequence the rest of the grid is not stepped.  A search in which every
candidate traces, as at the uniform horizon, costs O(n + grid) map steps for
n states rather than n x grid; see _survivor_search for the general bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .fuzzy_metric import Ball, FuzzyMetric, ball_members, require_map_in_space
from .orbits import (
    DensityReport,
    MixingReport,
    OrbitSequence,
    VerificationError,
    _cofinite_onset,
    _trace_scores,
    _violations,
    classical_score,
    density,
    fuzzy_score,
    ns_set,
    orbit_states,
    require_in_domain,
)
from .systems import ConstructionError, example43_map

DEFAULT_FUZZY_GRID = 1e-4
DEFAULT_CLASSICAL_GRID = 1e-5


class EmptyBallError(ValueError):
    """A probe ball contains no grid point."""


@dataclass
class ShadowingVerdict:
    """Outcome of a tracing search.

    ``witness`` is the smallest-valued tracing start point, or None.  For a
    witness, ``worst_index`` is its weakest tracing step (the first on ties)
    and ``worst_value`` its value there.  With no witness, ``worst_index`` is
    the index where the last grid candidates were eliminated, ``near_miss``
    the one of them that came closest to the sequence there (the smallest on
    ties) and ``worst_value`` its value there.  ``mode`` states which
    comparison the values use: fuzzy verdicts store a nearness (larger is
    better), classical ones a distance (smaller is better).
    """

    witness: float | None
    worst_index: int
    worst_value: float
    grid: float
    candidates: int
    eps: float
    t0: float | None
    mode: str = "fuzzy"
    near_miss: float | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        return {"verdict": "witness-found" if self.found else "no-witness", **asdict(self)}


def shadow_search(seq: OrbitSequence, f, m: FuzzyMetric, eps: float, t0: float,
                  resolution: float = DEFAULT_FUZZY_GRID) -> ShadowingVerdict:
    """Exhaustive search for a point whose orbit stays eps-near the sequence.

    Every grid point is advanced alongside the sequence and eliminated at its
    first index with M(f^i(x), x_i, t0) <= 1 - eps.  Survivors are witnesses;
    the smallest-valued one is returned and re-verified.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    score = fuzzy_score(f, m, t0)
    cands = f.grid(resolution)
    witness, arg, value, near = _survivor_search(seq, f, cands, score, 1.0 - eps)
    return ShadowingVerdict(witness, arg, value, resolution, cands.size, eps, t0,
                            near_miss=near)


def classical_shadow_search(seq: OrbitSequence, f, eps: float,
                            resolution: float = DEFAULT_CLASSICAL_GRID) -> ShadowingVerdict:
    """Classical tracing: candidates survive an index when d(f^i(x), x_i) < eps.

    Runs the survivor loop of shadow_search on the negated distance; worst
    values are reported as distances.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    cands = f.grid(resolution)
    witness, arg, value, near = _survivor_search(seq, f, cands, classical_score, -eps)
    # scores are negated distances; 0.0 - v maps a zero score to +0.0
    return ShadowingVerdict(witness, arg, 0.0 - value, resolution, cands.size, eps, None,
                            mode="classical", near_miss=near)


def _survivor_search(seq: OrbitSequence, f, cands: np.ndarray, score,
                     floor: float) -> tuple[float | None, int, float, float | None]:
    """The survivor loop behind both tracing searches.

    Ascending candidates are advanced alongside the sequence and dropped at
    their first index with score(f^i(x), x_i) <= floor; only the survivors'
    grid indices and states are kept.  Returns (witness, worst index, worst
    score, near miss).  The witness is the smallest survivor, re-verified; its
    worst index and score are the first least score of that re-check.  With
    no survivor, the worst index is where the last candidates died and the
    near miss is the one of them scoring highest there (the smallest on ties).

    The verdict is that of the whole grid, but the work is not.  When the
    least survivor changes, a scalar probe runs it ahead; if it reaches the
    last index it is the least witness, and the loop stops.  Scalar and
    array evaluation give the same bits, so a probe fails exactly where the
    loop would drop its candidate.  After a probe started at index i fails,
    the next one waits for index 2i + 1.  So at most log2(n) + 1 probes run,
    they take O(n) scalar steps in all, and the loop takes at most twice the
    vector steps it takes before the least witness becomes the least
    survivor.  When every candidate survives, as at the uniform horizon, the
    first probe succeeds: O(n + grid) steps in place of n x grid.
    """
    states = require_in_domain(f, seq.states)
    X, idx = cands, np.arange(cands.size)
    probed, next_probe = -1, 0
    for i, target_state in enumerate(states):
        if i >= next_probe and idx[0] != probed:
            probed = idx[0]
            if _probe(f, X[0], states, i, score, floor):
                break
            next_probe = 2 * i + 1
        vals = score(X, target_state)
        dead = vals <= floor
        if dead.any():
            if dead.all():
                j = int(np.argmax(vals))
                return None, i, float(vals[j]), float(cands[idx[j]])
            idx, X = idx[~dead], X[~dead]
        if i + 1 < states.size:
            X = f.eval_array(X)

    w = float(cands[idx[0]])
    scores = _trace_scores(seq, w, f, score)
    bad = _violations(scores, floor)
    if not bad.is_empty:
        raise VerificationError(f"witness re-verification failed at index {bad.indices[0]}")
    k = int(np.argmin(scores))
    return w, k, float(scores[k]), None


_PROBE_FIRST, _PROBE_GROWTH = 8, 4


def _probe(f, x: float, states: np.ndarray, i: int, score, floor: float) -> bool:
    """Whether the scalar orbit of x, the state at index i, scores above floor
    at every index from i on.  It is scored in chunks that grow
    geometrically and stops at the first chunk with a violation, so a probe
    that fails at index j takes O(j - i) steps."""
    size = _PROBE_FIRST
    try:
        while True:
            end = min(i + size, states.size)
            orbit = orbit_states(f, x, end - i)
            if (score(orbit, states[i:end]) <= floor).any():
                return False
            if end == states.size:
                return True
            x, i, size = f.eval(orbit[-1]), end, size * _PROBE_GROWTH
    except ValueError:  # the float orbit left the domain: the loop decides
        return False


def build_nonshadowable_orbit(delta: float, f=None) -> OrbitSequence:
    """Pseudo-orbit that crosses the repelling side of the 1/2 fixed point.

    Rides the true orbit upward from 1/4 until one ratio-step below 1/2,
    hops onto 1/2, hops just above it, then rides the true orbit up to 1
    (appended exactly).  Under the ratio metrics every transition keeps
    min/max nearness above 1 - delta, yet no single orbit can trace both the
    1/4 and the 1 entries: orbits starting at or below 1/2 never leave
    (0, 1/2], and orbits starting above never come back down.
    """
    if not 0.0 < delta < 0.5:
        raise ConstructionError("crossing construction needs delta in (0, 1/2)")
    if f is None:
        f = example43_map()
    states = [0.25]
    v = 0.25
    # ascend toward 1/2 until the hop onto 1/2 is a valid ratio step
    while not f.eval(v) > (1.0 - delta) / 2.0:
        v = f.eval(v)
        states.append(v)
    states.append(0.5)
    hop = 0.5 / (1.0 - delta / 2.0)
    states.append(hop)
    v = hop
    # ascend toward the fixed point at 1, then land on it exactly
    while v < 1.0 - 1e-9 or not f.eval(v) > 1.0 - delta:
        v = f.eval(v)
        states.append(v)
        if v == 1.0:
            break
    states.append(1.0)
    return OrbitSequence(np.array(states), provenance="constructed")


def ergodic_shadow_search(seq: OrbitSequence, f, m: FuzzyMetric, eps: float, t0: float,
                          resolution: float = 1e-2) -> tuple[float, DensityReport]:
    """Candidate minimizing the final tracing-violation density, with its curve.

    Candidates are the grid of f plus the sequence start.  The returned
    report's plausibly_zero flag is the tracing verdict at the package-wide
    density threshold.  Raises ValueError unless eps lies in (0, 1) and t0 is
    finite and positive.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    score = fuzzy_score(f, m, t0)
    states = require_in_domain(f, seq.states)
    cands = np.unique(np.concatenate([f.grid(resolution), states[:1]]))
    target = 1.0 - eps

    X = cands
    counts = np.zeros(cands.size, dtype=np.int64)
    for i, s in enumerate(states):
        counts += score(X, float(s)) <= target
        if i + 1 < states.size:
            X = f.eval_array(X)

    best = int(np.argmin(counts))  # ties break toward the smaller state value
    candidate = float(cands[best])
    report = density(ns_set(seq, candidate, f, m, eps, t0))
    return candidate, report


def topological_mixing_probe(f, U: Ball, V: Ball, m: FuzzyMetric, n_max: int = 64,
                             resolution: float = 1e-3) -> MixingReport:
    """Step counts n <= n_max after which some grid point of U lands in V.

    Grid points of f inside U are iterated exactly; membership of their
    images in V uses the ball's own comparison.  Raises ValueError when the
    domain of f leaves the space of m or a ball's center lies outside the
    domain, and EmptyBallError when either ball captures no grid point.
    """
    require_map_in_space(f, m)
    for name, ball in (("U", U), ("V", V)):
        if not f.contains(ball.center):
            raise ValueError(f"{name} center {ball.center!r} outside domain of {f.name}")
    pts = f.grid(resolution)
    u_mask = ball_members(m, U, pts)
    v_mask = ball_members(m, V, pts)
    if not u_mask.any():
        raise EmptyBallError("no grid point inside the source ball")
    if not v_mask.any():
        raise EmptyBallError("no grid point inside the target ball")

    X = pts[u_mask]
    present: set[int] = set()
    for n in range(1, n_max + 1):
        X = f.eval_array(X)
        if ball_members(m, V, X).any():
            present.add(n)
    ordered = tuple(sorted(present))
    return MixingReport(present=ordered, n_max=n_max, n0=_cofinite_onset(present, n_max))
