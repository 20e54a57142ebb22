"""Pseudo-orbit machinery: validators, violation index sets, density curves,
chain search over transition graphs, and the two interleaving constructions.

Conventions, fixed package-wide:

* a fuzzy transition i -> i+1 is valid when M(f(x_i), x_{i+1}, t0) > 1 - delta,
  and index i is a violation when the nearness is <= 1 - delta (complements by
  construction);
* a classical transition is valid when d(f(x_i), x_{i+1}) < delta, violated
  when the distance is >= delta;
* prefix densities count violations in [0, n) and divide by n.  Infinite
  sequences are represented by finite prefixes, so density verdicts are
  finite-prefix judgments against an explicit threshold, never limit claims.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DENSITY_THRESHOLD = 0.01
_DENSITY_LADDER_BASE = 100


class OrbitFileError(ValueError):
    """Raised when an orbit CSV cannot be parsed; carries the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(eq=False)
class OrbitSequence:
    """Finite sequence of states with a provenance tag.

    Provenance is one of "true-orbit", "perturbed", "constructed", "file".
    """

    states: np.ndarray
    provenance: str = "constructed"

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float).ravel()
        if self.states.size == 0:
            raise ValueError("orbit sequence must be nonempty")
        if not np.isfinite(self.states).all():
            raise ValueError("orbit states must be finite")

    def __len__(self) -> int:
        return int(self.states.size)

    def __getitem__(self, i: int) -> float:
        return float(self.states[i])

    def to_csv(self, path) -> None:
        # the bytes csv.writer writes: a float repr needs no quoting, and
        # rows end in "\r\n"
        rows = "".join(f"{i},{v!r}\r\n" for i, v in enumerate(self.states.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write("index,value\r\n" + rows)

    @classmethod
    def from_csv(cls, path) -> "OrbitSequence":
        values = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["index", "value"]:
                raise OrbitFileError('expected header "index,value"', 1)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise OrbitFileError(f"expected 2 fields, got {len(row)}", lineno)
                try:
                    idx = int(row[0])
                    val = float(row[1])
                except ValueError as exc:
                    raise OrbitFileError(str(exc), lineno) from None
                if idx != len(values):
                    raise OrbitFileError(f"index {idx} out of order", lineno)
                values.append(val)
        if not values:
            raise OrbitFileError("no data rows", 2)
        return cls(np.array(values), provenance="file")


@dataclass(eq=False)
class IndexSet:
    """Strictly increasing violation indices inside a universe [0, n)."""

    indices: np.ndarray
    universe: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64).ravel()
        if self.universe < 1:
            raise ValueError("universe length must be positive")
        if self.indices.size:
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be strictly increasing")
            if self.indices[0] < 0 or self.indices[-1] >= self.universe:
                raise ValueError("indices must lie in [0, universe)")

    @property
    def is_empty(self) -> bool:
        return self.indices.size == 0

    def count_below(self, n: int) -> int:
        return int(np.searchsorted(self.indices, n, side="left"))

    def issubset(self, other: np.ndarray) -> bool:
        return bool(np.isin(self.indices, np.asarray(other, dtype=np.int64)).all())

    def to_dict(self) -> dict:
        return {"universe": self.universe, "count": int(self.indices.size),
                "indices": self.indices.tolist()}


@dataclass
class DensityReport:
    """Prefix-density curve of an index set with a finite-prefix verdict."""

    universe: int
    points: list[tuple[int, float]]
    final_density: float
    plausibly_zero: bool
    threshold: float = DENSITY_THRESHOLD

    def to_dict(self) -> dict:
        return {
            "universe": self.universe,
            "points": [{"n": n, "density": d} for n, d in self.points],
            "final_density": self.final_density,
            "plausibly_zero": self.plausibly_zero,
            "threshold": self.threshold,
        }


@dataclass
class MixingReport:
    """Integers n <= n_max for which the probed property held, with the least
    onset n0 such that [n0, n_max] is fully present (cofiniteness at scale)."""

    present: tuple[int, ...]
    n_max: int
    n0: int | None

    def to_dict(self) -> dict:
        return {"present": list(self.present), "n_max": self.n_max, "n0": self.n0}


def _cofinite_onset(present: set[int], n_max: int, n_min: int = 1) -> int | None:
    if n_max not in present:
        return None
    n0 = n_max
    while n0 - 1 >= n_min and (n0 - 1) in present:
        n0 -= 1
    return n0


# -- validators ----------------------------------------------------------------


def fuzzy_score(m, t0: float):
    """Pair score of fuzzy comparisons: the nearness M(x, y, t0)."""
    return lambda x, y: m.eval_array(x, y, t0)


def classical_score(x, y):
    """Pair score of classical comparisons: the negated distance -|x - y|, so
    that a larger score is closer in both cases and a distance bound d < delta
    reads score > -delta."""
    return -np.abs(x - y)


def require_in_domain(f, states: np.ndarray) -> np.ndarray:
    """Return states unchanged after checking that they lie in the domain of
    f; the domain is an interval, so the least and the greatest state decide."""
    for v in (states.min(), states.max()):
        if not f.contains(v):
            raise ValueError(f"state {float(v)!r} outside domain of {f.name}")
    return states


def _violations(scores: np.ndarray, floor: float) -> IndexSet:
    return IndexSet(np.flatnonzero(scores <= floor), universe=scores.size)


def _transition_violations(seq: OrbitSequence, f, score, floor: float) -> IndexSet:
    states = seq.states
    if states.size < 2:
        raise ValueError("need at least two states to validate transitions")
    require_in_domain(f, states)
    return _violations(score(f.eval_array(states[:-1]), states[1:]), floor)


def _trace_scores(seq: OrbitSequence, x: float, f, score) -> np.ndarray:
    """Scores score(f^i(x), x_i) of the true orbit of x against the sequence."""
    states = require_in_domain(f, seq.states)
    return score(orbit_states(f, x, states.size), states)


def validate_f_pseudo_orbit(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i where the fuzzy transition bound fails, i.e.
    M(f(x_i), x_{i+1}, t0) <= 1 - delta.  Empty means the sequence is a valid
    delta-pseudo-orbit of f at horizon t0."""
    return _transition_violations(seq, f, fuzzy_score(m, t0), 1.0 - delta)


def npo_set(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Violation set of the transition predicate; same predicate as the
    validator, kept as a named alias for symmetry with ns_set."""
    return validate_f_pseudo_orbit(seq, f, m, delta, t0)


def ns_set(seq: OrbitSequence, x: float, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i where the tracing bound fails: M(f^i(x), x_i, t0) <= 1 - delta."""
    return _violations(_trace_scores(seq, x, f, fuzzy_score(m, t0)), 1.0 - delta)


def classical_validate(seq: OrbitSequence, f, delta: float) -> IndexSet:
    """Classical twin of the fuzzy validator: violations are steps with
    d(f(x_i), x_{i+1}) >= delta."""
    return _transition_violations(seq, f, classical_score, -delta)


def classical_ns_set(seq: OrbitSequence, x: float, f, eps: float) -> IndexSet:
    """Classical tracing violations: indices with d(f^i(x), x_i) >= eps."""
    return _violations(_trace_scores(seq, x, f, classical_score), -eps)


def _orbit_start(f, x: float, n: int) -> float:
    """x as a float, after checking that it lies in the domain of f and that
    the count n is nonnegative."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = float(x)
    if not f.contains(v):
        raise ValueError(f"{v!r} outside domain of {f.name}")
    return v


def orbit_states(f, x: float, n: int) -> np.ndarray:
    """The first n states x, f(x), ..., f^(n-1)(x) of the true orbit of x."""
    v = _orbit_start(f, x, n)
    states = [v]
    for _ in range(n - 1):
        v = f.eval(v)
        states.append(v)
    return np.array(states[:n])


# -- density -------------------------------------------------------------------


def density(iset: IndexSet, threshold: float = DENSITY_THRESHOLD) -> DensityReport:
    """Prefix-density curve at a geometric ladder of n, plus the universe.

    The verdict is "plausibly zero" when the curve never increases (within
    1e-12) and the final density sits below the threshold.
    """
    ns = []
    n = _DENSITY_LADDER_BASE
    while n < iset.universe:
        ns.append(n)
        n *= 10
    ns.append(iset.universe)
    points = [(n, iset.count_below(n) / n) for n in ns]
    densities = [d for _, d in points]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(densities, densities[1:]))
    final = densities[-1]
    return DensityReport(
        universe=iset.universe,
        points=points,
        final_density=final,
        plausibly_zero=bool(nonincreasing and final < threshold),
        threshold=threshold,
    )


# -- interleaving constructions --------------------------------------------------


def transitivity_skeleton(n: int) -> np.ndarray:
    """Sorted indices below n of the sparse gluing skeleton.

    The skeleton interleaves two index families built from the recurrence
    a_0 = 0, b_0 = 1, a_k = b_{k-1} + k, b_k = a_k + k + 1, whose closed forms
    are a_k = k(k+1) and b_k = (k+1)**2; about 2*sqrt(n) of them sit below n,
    so the family has vanishing prefix density.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k_max = int(math.isqrt(n)) + 1
    ks = np.arange(k_max + 1, dtype=np.int64)
    a = ks * (ks + 1)
    b = (ks + 1) ** 2
    merged = np.unique(np.concatenate([a, b]))
    return merged[merged < n]


def build_transitivity_orbit(x: float, y: float, f, length: int) -> OrbitSequence:
    """Interleave restarting orbit segments of x and y, with all gluing
    discontinuities confined to the skeleton indices.

    Segment ends sit exactly on skeleton members: the k-th block pair holds
    x, f(x), ..., f^k(x) followed by y, f(y), ..., f^k(y), so every transition
    inside a segment is exact and the violation set of the result is a subset
    of the skeleton.
    """
    if length < 1:
        raise ValueError("length must be positive")
    states = np.empty(length)
    states[0] = x
    # longest segment needed: k_max + 1 entries where 1 + k_max*(k_max+1) >= length
    k_needed = int(math.isqrt(length)) + 1
    orbit_x = orbit_states(f, x, k_needed + 1)
    orbit_y = orbit_states(f, y, k_needed + 1)
    i = 1
    k = 0
    while i < length:
        for segment in (orbit_x, orbit_y):
            take = min(k + 1, length - i)
            if take <= 0:
                break
            states[i:i + take] = segment[:take]
            i += take
        k += 1
    return OrbitSequence(states, provenance="constructed")


def interleave_for_power(seq: OrbitSequence, k: int, f) -> OrbitSequence:
    """Expand a sequence for the k-th power map into one for the base map:
    entry k*i + l holds f^l(x_i) for 0 <= l < k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    base = seq.states
    out = np.empty(k * base.size)
    cur = base.copy()
    for l in range(k):
        out[l::k] = cur
        if l + 1 < k:
            cur = np.asarray(f.eval_array(cur), dtype=float)
    return OrbitSequence(out, provenance="constructed")


def perturbed_orbit(f, x0: float, n: int, noise: float, seed: int = 0) -> OrbitSequence:
    """Orbit of x0 with seeded uniform per-step noise, clipped to the domain."""
    v = _orbit_start(f, x0, n)
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    # one draw of n kicks is the stream of n scalar draws
    kicks = np.random.default_rng(seed).uniform(-noise, noise, n).tolist()
    lo, hi = f.domain_lo, f.domain_hi
    floor = lo + (hi - lo) * 1e-12 if f.lo_open else lo
    states = [v]
    for kick in kicks:
        v = min(hi, max(floor, f.eval(v) + kick))
        states.append(v)
    return OrbitSequence(np.array(states), provenance="perturbed")


# -- chain search over the transition graph ---------------------------------------


def _chain_nodes(x: float, y: float, f, m, resolution: float) -> np.ndarray:
    pts = m.grid(resolution)
    return require_in_domain(f, np.unique(np.concatenate([pts, [x, y]])))


def _reach_runs(stepped: np.ndarray, nodes: np.ndarray, m, t0: float,
                delta: float) -> tuple[np.ndarray, np.ndarray]:
    """For each stepped state s, the run [lo, hi) of node indices v with
    M(s, nodes[v], t0) > 1 - delta.

    With k = searchsorted(nodes, s), every metric's float kernel is
    nondecreasing in v below k and nonincreasing from k on: |s - v|, t + d
    and t / (t + d) are monotone under IEEE rounding, and so are the ratios
    v/s and s/v, a constant horizon weight, and the value 1 at v == s.  The
    near nodes below k are therefore a suffix of [0, k) and those from k on a
    prefix of [k, n), so the near set is one run, and a binary search of the
    exact predicate on each side finds its ends with 2 log2(n) evaluations.
    """
    count, n = stepped.size, nodes.size
    k = np.searchsorted(nodes, stepped)
    # rows [0, count) seek the first near index below k, rows [count, 2count)
    # the first far index from k on; each search keeps its answer in [lo, hi]
    lo = np.concatenate([np.zeros_like(k), k])
    hi = np.concatenate([k, np.full_like(k, n)])
    states = np.concatenate([stepped, stepped])
    below = np.arange(2 * count) < count
    target = 1.0 - delta
    while True:
        rows = np.flatnonzero(lo < hi)
        if not rows.size:
            return lo[:count], lo[count:]
        mid = (lo[rows] + hi[rows]) // 2
        near = m.eval_array(states[rows], nodes[mid], t0) > target
        up = near != below[rows]
        lo[rows[up]] = mid[up] + 1
        hi[rows[~up]] = mid[~up]


def _covered(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Mask of the n node indices inside at least one run [lo, hi)."""
    edges = np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1)
    return np.cumsum(edges[:n]) > 0


def chain_search(x: float, y: float, f, m, delta: float, t0: float,
                 resolution: float = 1e-3) -> OrbitSequence | None:
    """Shortest chain from x to y through the grid transition graph, or None.

    Nodes are the metric grid plus both endpoints, all of which must lie in
    the domain of f; u -> v is an edge when M(f(u), v, t0) > 1 - delta.
    Breadth-first search guarantees a minimal length chain; among parents in
    one level the smallest state value wins, which makes results deterministic.
    """
    nodes = _chain_nodes(x, y, f, m, resolution)
    if x == y:
        return OrbitSequence(np.array([x]), provenance="constructed")
    ix = int(np.searchsorted(nodes, x))
    iy = int(np.searchsorted(nodes, y))

    visited = np.zeros(nodes.size, dtype=bool)
    visited[ix] = True
    frontier = np.array([ix], dtype=np.int64)
    levels = []

    while frontier.size:
        stepped = np.asarray(f.eval_array(nodes[frontier]), dtype=float)
        lo, hi = _reach_runs(stepped, nodes, m, t0, delta)
        levels.append((frontier, lo, hi))
        hit = _covered(lo, hi, nodes.size) & ~visited
        if not hit.any():
            return None
        visited |= hit
        if visited[iy]:
            # each level's frontier is ascending, so the first covering run
            # belongs to the smallest parent state
            chain = [iy]
            for fr, lo, hi in reversed(levels):
                v = chain[-1]
                chain.append(int(fr[np.flatnonzero((lo <= v) & (v < hi))[0]]))
            chain.reverse()
            return OrbitSequence(nodes[chain], provenance="constructed")
        frontier = np.flatnonzero(hit)
    return None


def chain_mixing_check(x: float, y: float, f, m, delta: float, t0: float,
                       resolution: float = 1e-3, n_max: int = 64) -> MixingReport:
    """Which chain lengths from x to y exist, for lengths up to n_max.

    A chain of length n has n states and n - 1 graph steps; walks may revisit
    nodes, so the frontier is propagated without pruning.  Reports the set of
    achievable lengths and the least onset after which every length occurs.
    """
    nodes = _chain_nodes(x, y, f, m, resolution)
    ix = int(np.searchsorted(nodes, x))
    iy = int(np.searchsorted(nodes, y))

    reachable = np.zeros(nodes.size, dtype=bool)
    reachable[ix] = True
    present: set[int] = set()
    for n in range(1, n_max + 1):
        if reachable[iy]:
            present.add(n)
        if n == n_max:
            break
        stepped = np.asarray(f.eval_array(nodes[reachable]), dtype=float)
        nxt = _covered(*_reach_runs(stepped, nodes, m, t0, delta), nodes.size)
        if np.array_equal(nxt, reachable):
            # stationary frontier: the presence pattern repeats for all larger n
            if reachable[iy]:
                present.update(range(n + 1, n_max + 1))
            break
        reachable = nxt
    ordered = tuple(sorted(present))
    return MixingReport(present=ordered, n_max=n_max, n0=_cofinite_onset(present, n_max))
