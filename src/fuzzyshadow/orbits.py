"""Pseudo-orbit machinery: validators, violation index sets, density curves,
chains over float-safe reach intervals, and the two interleaving
constructions.

Conventions, fixed package-wide:

* a fuzzy transition i -> i+1 is valid when M(f(x_i), x_{i+1}, t0) > 1 - delta,
  and index i is a violation when the nearness is <= 1 - delta (complements by
  construction);
* a classical transition is valid when d(f(x_i), x_{i+1}) < delta, violated
  when the distance is >= delta;
* prefix densities count violations in [0, n) and divide by n.  Infinite
  sequences are represented by finite prefixes, so density verdicts are
  finite-prefix judgments against an explicit threshold, never limit claims;
* chains live on the continuum, not on a grid: under every metric here a
  ball is an interval, and a continuous piecewise-linear map sends an
  interval to an interval, so the ends of all chains of length n from x form
  one interval R_n.  It is computed with exact rational arithmetic on balls
  shrunk by a float-error slack and rounded inward to float ends, so that
  every state of R_n ends a float chain that validate_f_pseudo_orbit
  accepts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fuzzy_metric import (Interval, _require_finite_positive, require_in_domain,
                           require_map_in_space)
from .reports import VerificationError

DENSITY_THRESHOLD = 0.01
_DENSITY_LADDER_BASE = 100

#: Most steps a chain search, a chain-length spectrum or a mixing probe
#: takes, as ``fuzzy_metric.MAX_GRID_POINTS`` bounds grids: a spectrum
#: keeps about 90 B per step.
MAX_STEPS = 10**6
#: Longest universe ``transitivity_skeleton`` indexes: about 2 sqrt(n)
#: indices, whose arrays take about 150 MB at 10**12.
MAX_UNIVERSE = 10**12


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
        """Read a file in any layout the csv module reads.  A file in the
        layout to_csv writes is parsed in bulk; any other file, and any file
        with a fault, is read row by row, which alone names faults."""
        with open(path, newline="") as fh:
            try:
                values = _read_bulk(fh)
            except ValueError:  # a number int or float rejects, or undecodable text
                values = None
            if values is None:
                fh.seek(0)
                values = _read_rows(fh)
        return cls(np.array(values), provenance="file")


# characters per bulk block: the text and fields held at once stay bounded,
# as the row loop's do
_CSV_BLOCK = 1 << 16
# deletes every character a to_csv number holds, leaving the separators
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.e")


def _read_bulk(fh) -> list[float] | None:
    """The values of a file in to_csv's layout, read a block of lines at a
    time, or None as soon as a block departs from that layout.

    A block passes when deleting the number characters from it leaves
    ",\\r\\n" once per line, so that csv.reader would split each line into
    the same two fields, and when it is no longer than csv's field size
    limit, so that no field exceeds it.  Its fields then go through the int
    and float the row loop applies, so both readers accept the same values.
    """
    if fh.readline() != "index,value\r\n":
        return None
    limit = csv.field_size_limit()
    values = []
    while lines := fh.readlines(_CSV_BLOCK):
        block = "".join(lines)
        if len(block) > limit or block.translate(_NUMBER_CHARS) != ",\r\n" * len(lines):
            return None
        fields = block.replace("\r\n", ",").split(",")
        start = len(values)
        if list(map(int, fields[0:-1:2])) != list(range(start, start + len(lines))):
            return None
        values.extend(map(float, fields[1::2]))
    return values or None


def _read_rows(fh) -> list[float]:
    """The values of a file read row by row with csv.reader; every fault
    raises OrbitFileError naming its line."""
    reader = csv.reader(fh)
    values = []
    try:
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
    except csv.Error as exc:  # a field over csv.field_size_limit(), say
        raise OrbitFileError(str(exc), reader.line_num) from None
    if not values:
        raise OrbitFileError("no data rows", 2)
    return values


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


def _cofinite_onset(present: set[int], n_max: int) -> int | None:
    if n_max not in present:
        return None
    n0 = n_max
    while n0 > 1 and (n0 - 1) in present:
        n0 -= 1
    return n0


# -- validators ----------------------------------------------------------------


def fuzzy_score(f, m, t0: float):
    """Pair score of fuzzy comparisons of states of f: the nearness
    M(x, y, t0).  The horizon and the space are checked once here, so that
    neither a non-finite t0 nor a state of f outside the space of m (0 under
    a ratio metric, say) can give a verdict."""
    _require_finite_positive("horizon", t0)
    require_map_in_space(f, m)
    return lambda x, y: m.eval_array(x, y, t0)


def classical_score(x, y):
    """Pair score of classical comparisons: the negated distance -|x - y|, so
    that a larger score is closer in both cases and a distance bound d < delta
    reads score > -delta."""
    return -np.abs(x - y)


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
    return score(np.array(f.states(x, states.size)), states)


def _require_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def validate_f_pseudo_orbit(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i where the fuzzy transition bound fails, i.e.
    M(f(x_i), x_{i+1}, t0) <= 1 - delta.  Empty means the sequence is a valid
    delta-pseudo-orbit of f at horizon t0.  Raises ValueError unless delta
    lies in (0, 1)."""
    _require_unit("delta", delta)
    return _transition_violations(seq, f, fuzzy_score(f, m, t0), 1.0 - delta)


def npo_set(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Violation set of the transition predicate; same predicate as the
    validator, kept as a named alias for symmetry with ns_set."""
    return validate_f_pseudo_orbit(seq, f, m, delta, t0)


def ns_set(seq: OrbitSequence, x: float, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i where the tracing bound fails: M(f^i(x), x_i, t0) <= 1 - delta.
    Raises ValueError unless delta lies in (0, 1)."""
    _require_unit("delta", delta)
    return _violations(_trace_scores(seq, x, f, fuzzy_score(f, m, t0)), 1.0 - delta)


def classical_validate(seq: OrbitSequence, f, delta: float) -> IndexSet:
    """Classical twin of the fuzzy validator: violations are steps with
    d(f(x_i), x_{i+1}) >= delta.  Raises ValueError unless delta is finite
    and positive."""
    _require_finite_positive("delta", delta)
    return _transition_violations(seq, f, classical_score, -delta)


def classical_ns_set(seq: OrbitSequence, x: float, f, eps: float) -> IndexSet:
    """Classical tracing violations: indices with d(f^i(x), x_i) >= eps.
    Raises ValueError unless eps is finite and positive."""
    _require_finite_positive("eps", eps)
    return _violations(_trace_scores(seq, x, f, classical_score), -eps)


# -- density -------------------------------------------------------------------


def density(iset: IndexSet) -> DensityReport:
    """Prefix-density curve at a geometric ladder of n, plus the universe.

    The verdict is "plausibly zero" when the curve never increases (within
    1e-12) and the final density sits below DENSITY_THRESHOLD.
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
        plausibly_zero=bool(nonincreasing and final < DENSITY_THRESHOLD),
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
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe too long: {n}, more than {MAX_UNIVERSE}")
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
    orbit_x = np.array(f.states(x, k_needed + 1))
    orbit_y = np.array(f.states(y, k_needed + 1))
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
            cur = f.eval_array(cur)
    return OrbitSequence(out, provenance="constructed")


def perturbed_orbit(f, x0: float, n: int, noise: float, seed: int = 0) -> OrbitSequence:
    """Orbit of x0 under the IntervalMap f with seeded uniform per-step
    noise, clipped to the domain (see IntervalMap.perturbed_states)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    # one draw of n kicks is the stream of n scalar draws
    kicks = np.random.default_rng(seed).uniform(-noise, noise, n).tolist()
    return OrbitSequence(f.perturbed_states(x0, kicks), provenance="perturbed")


# -- chains over float-safe reach intervals ---------------------------------------


_EMPTY = Interval(Fraction(1), Fraction(0))


def _round_in(iv: Interval) -> Interval:
    """The closed interval from the least to the greatest float of iv (empty
    when iv holds none)."""
    a, b = float(iv.lo), float(iv.hi)
    # each float end converted once, so the tests compare fractions
    lo, hi = Fraction(a), Fraction(b)
    if lo < iv.lo or (lo == iv.lo and not iv.lo_closed):
        lo = Fraction(math.nextafter(a, math.inf))
    if hi > iv.hi or (hi == iv.hi and not iv.hi_closed):
        hi = Fraction(math.nextafter(b, -math.inf))
    return Interval(lo, hi)


def _chain_radii(x: float, y: float, f, m, delta: float, t0: float,
                 n_max: int) -> tuple[Fraction, Fraction]:
    """The radii of the reach balls and of the walk-back balls of chains.

    Both sit below delta by the metric's float slack (reach twice, walk-back
    once) plus 4 ulp(1) for the rounding of the kernel and of 1 - delta.  So
    a state of R_k rounded to a float still has a predecessor under the
    walk-back radius, and a float step inside a walk-back ball passes
    validate_f_pseudo_orbit.  x and y must lie in the domain of f, and the
    domain in the space of m."""
    if not (0.0 < delta < 1.0 and 0.0 < t0 < math.inf and 1 <= n_max <= MAX_STEPS):
        raise ValueError("chains need delta in (0, 1), a finite horizon t0 > 0 and "
                         f"n_max in [1, {MAX_STEPS}], got {delta!r}, {t0!r} and {n_max!r}")
    require_map_in_space(f, m)
    require_in_domain(f, np.array([x, y], dtype=float))
    slack = m.float_slack(f, t0)
    walk = Fraction(delta) - 4 * Fraction(2.0**-52) - slack
    return walk - slack, walk


def _reach_sets(x: float, f, m, radius: Fraction, t0: float, n_max: int):
    """Yield R_1, ..., R_{n_max}: R_1 = {x}, and R_{k+1} holds the floats of
    B(f(R_k)) & X, where B is the union of the open balls of the given
    radius at horizon t0 and X the domain of f.  Under singleton balls the
    only chain is the float orbit."""
    reach, prev = Interval.point(x), None
    for _ in range(n_max):
        yield reach
        if reach != prev:  # a stationary set repeats forever
            prev = reach
            if reach.is_empty or radius <= 0:
                reach = _EMPTY
                continue
            image = f.image(reach)
            ball = m.ball_interval(image, radius, t0)
            if ball == image:  # singleton balls: step the float orbit
                ball = Interval.point(f.eval(float(reach.lo)))
            reach = _round_in(ball & f.domain)


def chain_search(x: float, y: float, f, m, delta: float, t0: float,
                 resolution: float = 1e-3, n_max: int = 64) -> OrbitSequence | None:
    """Shortest chain x = x_1, ..., x_n = y of floats with
    M(f(x_k), x_{k+1}, t0) > 1 - delta in float arithmetic and n <= n_max
    (the least n with y in R_n, see _reach_sets and _chain_radii), or None when there is none.

    Walked back from y, x_k is the float midpoint of the floats of the widest
    piece of R_k & f^-1(B(x_{k+1})), the leftmost on ties, or the one state
    of a one-point R_k.  The chain is re-verified with
    validate_f_pseudo_orbit, and one that fails raises VerificationError.
    ``resolution`` is unused.  It stays seventh, with its 1e-3 default, only
    because perfbench/ passes grids there positionally and its chain-node hook
    builds m.grid(resolution) from the bound arguments.
    """
    radius, walk = _chain_radii(x, y, f, m, delta, t0, n_max)
    target, path = Fraction(y), []
    for reach in _reach_sets(x, f, m, radius, t0, n_max):
        path.append(reach)
        if target in reach:
            break
    else:
        return None
    states = [float(y)]
    for reach in reversed(path[:-1]):
        if reach.lo == reach.hi:
            states.append(float(reach.lo))
            continue
        ball = m.ball_interval(Interval.point(states[-1]), walk, t0)
        parts = [_round_in(part) for part in f.preimage(ball, reach)]
        part = max((p for p in parts if not p.is_empty), key=lambda p: p.hi - p.lo,
                   default=None)
        if part is None:
            raise VerificationError(f"chain state {states[-1]!r} has no float predecessor")
        states.append(float((part.lo + part.hi) / 2))
    chain = OrbitSequence(np.array(states[::-1]), provenance="constructed")
    if len(chain) > 1:
        bad = validate_f_pseudo_orbit(chain, f, m, delta, t0)
        if not bad.is_empty:
            raise VerificationError(f"chain re-verification failed at index {bad.indices[0]}")
    return chain


def chain_mixing_check(x: float, y: float, f, m, delta: float, t0: float,
                       resolution: float = 1e-3, n_max: int = 64) -> MixingReport:
    """Which chain lengths n <= n_max from x to y chain_search certifies:
    those with y in R_n.

    Reports the set of achievable lengths and the least onset after which
    every length occurs.  ``resolution`` is unused.  It stays seventh, with
    its 1e-3 default, only because perfbench/ passes grids there positionally
    and its chain-node hook builds m.grid(resolution) from the bound arguments.
    """
    radius, _ = _chain_radii(x, y, f, m, delta, t0, n_max)
    target = Fraction(y)
    present = [n for n, reach in enumerate(_reach_sets(x, f, m, radius, t0, n_max), 1)
               if target in reach]
    return MixingReport(tuple(present), n_max, _cofinite_onset(set(present), n_max))
