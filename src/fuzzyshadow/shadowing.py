"""Witness searches for tracing properties, plus mixing probes.

All searches are exhaustive over an explicit grid of candidate start points,
f.grid(resolution) over the domain of the map f.  The domain is the state
space, and a fuzzy metric only measures on it: every fuzzy search and probe
first checks that the domain lies inside the metric's space.
A "no witness" verdict is therefore certified only relative to the stated
grid resolution, which every verdict records; refining the grid is the
validation knob.  Witness verdicts are re-verified index by index before
being returned.

The tracing verdicts are grid-exhaustive, but their work is not.  The grid
must be ascending.  No score rises, in floats too, as a candidate moves
away from the first state x_0 on either side, so the candidates alive at
index 0 are one run of the grid: a search over both run ends at once finds
it from O(log grid) scores (at most 308 of 100 001 grid points), and a
search that dies at index 0 ends there.  Those are counts of scores, not
time: f.grid(resolution) still builds the whole grid array first, in
O(grid) time and memory, and at grid 1e-5 that takes 0.1-0.35 ms of such a
search.  Otherwise the least survivor's scalar orbit is checked from index
0, and once it traces to the end of the sequence the rest of the grid is
not stepped.  A search in which every candidate traces, as at the uniform
horizon, costs n map steps for n states rather than n x grid; see
_survivor_search for the general bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .fuzzy_metric import (Ball, FuzzyMetric, _require_finite_positive, _require_unit,
                           ball_members, require_map_in_space)
from .orbits import (
    MAX_STEPS,
    DensityReport,
    MixingReport,
    OrbitSequence,
    VerificationError,
    _cofinite_onset,
    classical_score,
    density,
    fuzzy_score,
    ns_set,
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
    _require_unit("eps", eps)
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
    _require_finite_positive("eps", eps)
    cands = f.grid(resolution)
    witness, arg, value, near = _survivor_search(seq, f, cands, classical_score, -eps)
    # scores are negated distances; 0.0 - v maps a zero score to +0.0
    return ShadowingVerdict(witness, arg, 0.0 - value, resolution, cands.size, eps, None,
                            mode="classical", near_miss=near)


def _survivor_search(seq: OrbitSequence, f, cands: np.ndarray, score,
                     floor: float) -> tuple[float | None, int, float, float | None]:
    """The survivor loop behind both tracing searches.

    The candidates, which must be ascending, are advanced alongside the
    sequence and dropped at their first index with score(f^i(x), x_i) <=
    floor; only the survivors and their states are kept.  Returns (witness,
    worst index, worst score, near miss).  The witness is the smallest
    survivor, confirmed by _trace; its worst index and score are the first
    least score of that check.  With no survivor, the worst index is where
    the last candidates died and the near miss is the one of them scoring
    highest there (the smallest on ties).

    The verdict is that of the whole grid, but the work is not.  Index 0
    scores no candidate it need not: its survivors are one run of the
    ascending grid, which _index0_run finds from O(log grid) scores.  When
    the least survivor changes, _trace probes its scalar orbit from index 0;
    if it traces to the last index it is the least witness, and the loop
    stops.  Scalar and array evaluation give the same bits, so a probe fails
    exactly where the loop would drop its candidate.  After a probe at index
    i fails, the next one waits for index 2i + 1.  So at most log2(n) + 1
    probes run, re-scoring the indices before their i adds at most 2n steps,
    and the loop takes at most twice the vector steps it takes before the
    least witness becomes the least survivor.  When every candidate
    survives, as at the uniform horizon, the first probe succeeds before
    index 0 is scored: n steps in place of n x grid.  A search that dies at
    index 0 takes O(log grid) scores, but not O(log grid) time: the caller
    built cands, the whole grid, in O(grid) time and memory.  A least
    survivor that no probe confirmed is checked once more; its failure
    raises VerificationError.
    """
    states = require_in_domain(f, seq.states)
    # the survivors' grid values C and their states X at index i
    C = X = cands
    probed, next_probe = None, 0
    for i, target_state in enumerate(states):
        if i >= next_probe and C[0] != probed:
            probed = C[0]
            scores = _trace(f, float(probed), states, score, floor)
            if not isinstance(scores, str):
                break
            next_probe = 2 * i + 1
        if i:
            vals = score(X, target_state)
            dead = vals <= floor
            if dead.any():
                if dead.all():
                    j = int(np.argmax(vals))
                    return None, i, float(vals[j]), float(C[j])
                C, X = C[~dead], X[~dead]
        else:
            lo, hi, near = _index0_run(cands, target_state, score, floor)
            if near is not None:
                j, peak = near
                return None, 0, peak, float(cands[j])
            C = X = cands[lo:hi]
        if i + 1 < states.size:
            X = f.eval_array(X)
    else:
        scores = _trace(f, float(C[0]), states, score, floor)
        if isinstance(scores, str):
            raise VerificationError(f"witness re-verification failed{scores}")
    k = int(np.argmin(scores))
    return float(C[0]), k, float(scores[k]), None


def _index0_run(cands: np.ndarray, s, score,
                floor: float) -> tuple[int, int, tuple[int, float] | None]:
    """(lo, hi, near): cands[lo:hi] are the ascending candidates x with
    score(x, s) > floor.  When there are none, near is the index of the first
    greatest score with that score; otherwise it is None.

    Every score kind is nondecreasing in x below k = searchsorted(cands, s)
    and nonincreasing from k on: the float subtraction, abs, division, min,
    max and the product with a constant round monotonically, and a
    candidate equal to s, which scores highest, sits at k.  So the scores
    peak at k - 1 or k, the survivors form one run around them, and the
    first greatest score starts the plateau that ends at the peak.  Two
    scores at the peak, then one _first_hits search for both run ends or for
    the plateau's start, score at most cands.size points, and O(log grid).
    """
    k = int(np.searchsorted(cands, s))
    around = [j for j in (k - 1, k) if 0 <= j < cands.size]
    vals = score(cands[around], s).tolist()
    left = vals[0] if k else -math.inf
    right = vals[-1] if k < cands.size else -math.inf
    if max(left, right) <= floor:
        if right > left:
            return k, k, (k, right)
        # the first j < k scoring at least left: above the next float down
        near, = _first_hits(cands, s, score, [(0, k - 1, math.nextafter(left, -math.inf), True)])
        return k, k, (near, left)
    # a dead side of the peak gets the empty bracket (k, k), found at k
    lo, hi = _first_hits(cands, s, score, [
        (0, k - 1, floor, True) if left > floor else (k, k, floor, True),
        (k + 1, cands.size, floor, False) if right > floor else (k, k, floor, False)])
    return lo, hi, None


_FAN_OUT = 64


def _first_hits(cands: np.ndarray, s, score, brackets) -> list[int]:
    """For each bracket (a, b, c, rising), the first j in [a, b) at which
    score(cands[j], s) is above c when rising, at most c when not; b when
    there is none.  The test must switch at most once over [a, b), from
    false to true.

    A round scores up to _FAN_OUT points of every open bracket, both of its
    ends among them, in one call, and cuts it to the gap before its first
    hit, so a bracket of g points closes after O(log g / log _FAN_OUT)
    rounds; no point is scored twice.
    """
    found = [b for a, b, _, _ in brackets]
    todo = [(n, a, b, c, rising) for n, (a, b, c, rising) in enumerate(brackets) if a < b]
    while todo:
        picks = [np.arange(a, b) if b - a <= _FAN_OUT
                 else a + np.arange(_FAN_OUT) * (b - a - 1) // (_FAN_OUT - 1)
                 for _, a, b, _, _ in todo]
        vals = score(cands[np.concatenate(picks)], s)
        nxt, start = [], 0
        for (n, a, b, c, rising), p in zip(todo, picks):
            v = vals[start:start + p.size]
            start += p.size
            hits = np.count_nonzero(v > c if rising else v <= c)
            t = p.size - hits  # the first hit, the tests being monotone
            gap_lo = int(p[t - 1]) + 1 if t else a
            found[n] = int(p[t]) if hits else b
            if gap_lo < found[n]:
                nxt.append((n, gap_lo, found[n], c, rising))
        todo = nxt
    return found


_TRACE_FIRST, _TRACE_GROWTH = 8, 4


def _trace(f, x: float, states: np.ndarray, score, floor: float) -> np.ndarray | str:
    """The scores score(f^i(x), x_i) of the scalar orbit of x against every
    state when each is above floor; otherwise why not: " at index k" for
    the first k scoring at most floor, or ": " and the error of the first
    state the orbit cannot step.  The orbit is scored in chunks that grow
    geometrically and stops at the first chunk with a violation, so an orbit
    that fails at index j takes O(j) steps."""
    parts, i, size = [], 0, _TRACE_FIRST
    try:
        while i < states.size:
            end = min(i + size, states.size)
            orbit = np.array(f.states(x, end - i))
            vals = score(orbit, states[i:end])
            bad = np.flatnonzero(vals <= floor)
            if bad.size:
                return f" at index {i + int(bad[0])}"
            parts.append(vals)
            if end < states.size:
                x = f.eval(orbit[-1])
            i, size = end, size * _TRACE_GROWTH
    except ValueError as exc:  # the float orbit left the domain
        return f": {exc}"
    return np.concatenate(parts)


def build_nonshadowable_orbit(delta: float, f=None) -> OrbitSequence:
    """Pseudo-orbit that crosses the repelling side of the 1/2 fixed point.

    Rides the true orbit upward from 1/4 until one ratio-step below 1/2,
    hops onto 1/2, hops just above it, then rides the true orbit up to 1
    (appended exactly).  Under the ratio metrics every transition keeps
    min/max nearness above 1 - delta, yet no single orbit can trace both the
    1/4 and the 1 entries: orbits starting at or below 1/2 never leave
    (0, 1/2], and orbits starting above never come back down.  A ride that
    does not arrive in MAX_STEPS steps (tent:1.5 never nears 1) raises
    ConstructionError.
    """
    if not 0.0 < delta < 0.5:
        raise ConstructionError("crossing construction needs delta in (0, 1/2)")
    if f is None:
        f = example43_map()
    states = [0.25]
    # ascend toward 1/2 until the hop onto 1/2 is a valid ratio step
    _ride(f, 0.25, states, lambda v: f.eval(v) > (1.0 - delta) / 2.0, "1/2")
    hop = 0.5 / (1.0 - delta / 2.0)
    states += [0.5, hop]
    # ascend toward the fixed point at 1, then land on it exactly
    _ride(f, hop, states,
          lambda v: v == 1.0 or (v >= 1.0 - 1e-9 and f.eval(v) > 1.0 - delta), "1")
    states.append(1.0)
    return OrbitSequence(np.array(states), provenance="constructed")


def _ride(f, v: float, states: list, arrived, target: str) -> None:
    """Append the float orbit of v after v to states until arrived(v)."""
    for _ in range(MAX_STEPS):
        if arrived(v):
            return
        v = f.eval(v)
        states.append(v)
    raise ConstructionError(f"crossing construction: the orbit does not reach {target} "
                            f"within {MAX_STEPS} steps")


def ergodic_shadow_search(seq: OrbitSequence, f, m: FuzzyMetric, eps: float, t0: float,
                          resolution: float = 1e-2) -> tuple[float, DensityReport]:
    """Candidate minimizing the final tracing-violation density, with its curve.

    Candidates are the grid of f plus the sequence start.  The returned
    report's plausibly_zero flag is the tracing verdict at the package-wide
    density threshold.  Raises ValueError unless eps lies in (0, 1) and t0 is
    finite and positive.
    """
    _require_unit("eps", eps)
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
    images in the open ball V is exact.  Raises ValueError when the
    domain of f leaves the space of m or a ball's center lies outside the
    domain or n_max is outside [1, MAX_STEPS], and EmptyBallError when either
    ball captures no grid point.
    """
    if not 1 <= n_max <= MAX_STEPS:
        raise ValueError(f"n_max must lie in [1, {MAX_STEPS}], got {n_max!r}")
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
