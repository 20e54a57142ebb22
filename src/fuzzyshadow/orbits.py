"""Pseudo-orbit machinery: validators, violation index sets, density curves,
chains over float-safe reach intervals, and the two interleaving
constructions.

Conventions, fixed package-wide:

* transition i -> i+1 is valid when x_{i+1} lies in the open ball
  {z : M(u, z, t0) > 1 - delta} about the exact image u = f(x_i) of the
  float x_i, and violated otherwise; ns_set measures x_i against the ball
  about the float f^i(x).  Membership is exact at every delta in (0, 1)
  (_ball_filter).  A classical radius delta is the ball of
  fuzzy_metric.CLASSICAL at radius 1/2 and horizon delta: d < delta;
* long sequences are walked in blocks of _BLOCK = 2**15 states (the
  validators, the tracing sets, interleave_for_power, perturbed_orbit,
  to_csv and from_csv), so their transient memory is O(block): a 10**6-state
  validation traces about 1 MB where whole-array passes took 22.9 MB.  Each
  step is elementwise or sequential, so the bits and the errors are those
  of one pass over the whole sequence;
* prefix densities count violations in [0, n) and divide by n: finite-prefix
  judgments against an explicit threshold, never limit claims;
* chains live on the continuum: every ball is an interval, and so is the
  image of an interval, so the ends of all chains of length n from x form
  one interval R_n.  It is stepped exactly in Python integers, on balls of
  radius delta less the float slack, and rounded inward to float ends, so
  that every state of R_n ends a float chain at delta itself.  The
  walk-back pulls the balls of radius delta back through the same pieces,
  and validate_f_pseudo_orbit re-checks the chain at delta.  Under
  singleton balls every ball is the closed ball of radius 0, so a chain is
  an exact orbit through floats.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fuzzy_metric import (CLASSICAL, _float_inside, _numerator, _require_finite_positive,
                           _require_unit, require_in_domain, require_map_in_space,
                           require_resolved)
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
#: States a long-sequence pass (validators, tracing sets, orbit
#: generation, interleaving, CSV writing) handles at once: each block's
#: temporaries, 256 KB an array, stay in cache.
_BLOCK = 2**15


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
        # NaN propagates through min and max, and an infinity is always an
        # extreme, so the two decide finiteness without an n-long mask
        if not (math.isfinite(self.states.min()) and math.isfinite(self.states.max())):
            raise ValueError("orbit states must be finite")

    def __len__(self) -> int:
        return int(self.states.size)

    def __getitem__(self, i: int) -> float:
        return float(self.states[i])

    def to_csv(self, path) -> None:
        # the bytes csv.writer writes: a float repr needs no quoting, and
        # rows end in "\r\n"; a list joins faster than a generator
        states = self.states
        with open(path, "w", newline="") as fh:
            fh.write("index,value\r\n")
            for i in range(0, states.size, _BLOCK):
                fh.write("".join([f"{j},{v!r}\r\n" for j, v in
                                  enumerate(states[i:i + _BLOCK].tolist(), i)]))

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
        return cls(values, provenance="file")


# characters per bulk block: the text and fields held at once stay bounded,
# as the row loop's do
_CSV_BLOCK = 1 << 16
# deletes every character a to_csv number holds, leaving the separators
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.e")


def _read_bulk(fh) -> np.ndarray | None:
    """The values of a file in to_csv's layout, read _CSV_BLOCK characters
    at a time, or None as soon as a block departs from that layout.

    Each chunk is cut after its last line end and the partial line carried
    into the next.  A block passes when deleting the number characters from
    it leaves ",\\r\\n" once per line, so that csv.reader would split each
    line into the same two fields, and when it is no longer than csv's field
    size limit, so that no field exceeds it; a carried line longer than the
    limit fails at once.  Its fields then go through the int and float the
    row loop applies, so both readers accept the same values.  They fill
    one array, grown in place by a quarter and trimmed at the end.
    """
    if fh.readline() != "index,value\r\n":
        return None
    limit = csv.field_size_limit()
    out, tail, start = np.empty(0), "", 0
    while chunk := fh.read(_CSV_BLOCK):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        text, tail = text[:cut], text[cut:]
        lines = text.count("\n")
        if (len(text) > limit or len(tail) > limit
                or text.translate(_NUMBER_CHARS) != ",\r\n" * lines):
            return None
        fields = text.replace("\r\n", ",").split(",")
        if list(map(int, fields[0:-1:2])) != list(range(start, start + lines)):
            return None
        if start + lines > out.size:
            # no view of out is alive, so numpy need not check references
            out.resize(max(out.size + (out.size >> 2), start + lines), refcheck=False)
        out[start:start + lines] = np.fromiter(map(float, fields[1::2]), float, lines)
        start += lines
    if tail or not start:  # a last line without its "\r\n", or no rows
        return None
    out.resize(start, refcheck=False)
    return out


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
            # a comparison of neighbours takes a bool a pair, np.diff an int64
            if not (self.indices[1:] > self.indices[:-1]).all():
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
    M(x, y, t0), after checking the horizon and that f maps in m's space."""
    _require_finite_positive("horizon", t0)
    require_map_in_space(f, m)
    return lambda x, y: m.eval_array(x, y, t0)


def _ball_filter(f, m, delta: float, t0: float, mapped: bool):
    """outside(c, z, sources): the indices j with z_j outside the open ball
    {z : M(u_j, z, t0) > 1 - delta} about the exact image u_j of sources_j,
    of which c_j is the float, when mapped; about c_j itself, sources None,
    when not.

    With (q, r) = m.ball_rule ((1, 0) for singletons), z is inside iff
    d = q max(z, u) - min(z, u) < r: every rule has q = 1 or r = 0, and
    q <= 1.  States are at most S = f.eval_scale in size, so rounding q, the
    product and the difference adds under (1 + q) 2**-51 S and an underflow
    to d at c.  When mapped, |c - u| < 2**-51 S (see float_slack) moves d by
    under 2**-51 S more, and G = (1 + q) 2**-49 S + 2**-1075 bounds the
    error of d in floats from c; when not, c is u, and G = (1 + q) 2**-51 S
    + 2**-1075.  Only d within G of r is decided exactly, in integers over D
    of f.integer_table (_outside_ball)."""
    _require_finite_positive("horizon", t0)
    require_map_in_space(f, m)
    rule = m.ball_rule(delta, t0)
    (qn, qd), (rn, rd) = (c.as_integer_ratio() for c in rule) if rule else ((1, 1), (0, 1))
    sn, sd = f.eval_scale.as_integer_ratio()
    # quotients rounded, then stepped outward: g >= G, closer <= r - G, farther >= r + G
    g = math.nextafter((qn + qd) * sn / (qd * sd << (49 if mapped else 51)), math.inf)
    try:
        r = rn / rd
    except OverflowError:  # a ball wider than every float
        r = math.inf
    closer = math.nextafter(math.nextafter(r, -math.inf) - g, -math.inf)
    farther = math.nextafter(math.nextafter(r, math.inf) + g, math.inf)
    q = qn / qd

    def outside(c, z, sources=None):
        d = np.abs(z - c) if q == 1.0 else q * np.maximum(z, c) - np.minimum(z, c)
        near = np.flatnonzero(d >= closer)
        if not near.size:
            return near
        sure = d[near] >= farther
        if sure.all():
            return near
        ball, unit = _integer_ball(f, m, delta, t0), f.integer_table.unit
        for k in np.flatnonzero(~sure).tolist():
            j = int(near[k])
            if sources is None:
                u = _numerator(float(c[j])) * unit
            else:
                x = _numerator(float(sources[j]))
                u = f.integer_image(x, x)[0]
            sure[k] = _outside_ball(ball, u, _numerator(float(z[j])) * unit)
        return near[sure]

    return outside


def _outside_ball(ball, u: int, z: int) -> bool:
    """Whether z / D is outside _integer_ball's ball about u / D."""
    lo_mul, lo_add, lo_den, hi_mul, hi_add, hi_den, closed = ball
    gap = 0 if closed else 1  # an end holds z when its integer margin is >= gap
    return z * lo_den - u * lo_mul - lo_add < gap or u * hi_mul + hi_add - z * hi_den < gap


def _transition_violations(seq: OrbitSequence, f, outside) -> IndexSet:
    """Indices i with x_{i+1} outside the ball about f(x_i), one block of
    _BLOCK transitions at a time; the domain is checked first."""
    states = seq.states
    if states.size < 2:
        raise ValueError("need at least two states to validate transitions")
    require_in_domain(f, states)
    n = states.size - 1
    found = []
    for i in range(0, n, _BLOCK):
        stop = min(i + _BLOCK, n)
        sources = states[i:stop]
        found.append(outside(f.eval_array(sources), states[i + 1:stop + 1], sources) + i)
    return IndexSet(np.concatenate(found), universe=n)


def _tracing_violations(seq: OrbitSequence, x: float, f, outside) -> IndexSet:
    """Indices i with x_i outside the ball about the float f^i(x), one block
    of _BLOCK states at a time; the domain is checked first."""
    states = require_in_domain(f, seq.states)
    n, v, found = states.size, x, []
    for i in range(0, n, _BLOCK):
        # a later block restarts from the state before it: f.states checks
        # every state but its last, so the bits and errors are those of one
        # f.states(x, n) call, whose last state stays unchecked
        skip = 1 if i else 0
        orbit = np.array(f.states(v, min(_BLOCK, n - i) + skip))[skip:]
        v = orbit[-1]
        found.append(outside(orbit, states[i:i + orbit.size]) + i)
    return IndexSet(np.concatenate(found), universe=n)


def validate_f_pseudo_orbit(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i with M(f(x_i), x_{i+1}, t0) <= 1 - delta exactly: empty
    for a delta-pseudo-orbit.  Raises ValueError unless delta lies in (0, 1)."""
    _require_unit("delta", delta)
    return _transition_violations(seq, f, _ball_filter(f, m, delta, t0, True))


def npo_set(seq: OrbitSequence, f, m, delta: float, t0: float) -> IndexSet:
    """Violation set of the transition predicate; same predicate as the
    validator, kept as a named alias for symmetry with ns_set."""
    return validate_f_pseudo_orbit(seq, f, m, delta, t0)


def ns_set(seq: OrbitSequence, x: float, f, m, delta: float, t0: float) -> IndexSet:
    """Indices i with M(f^i(x), x_i, t0) <= 1 - delta exactly, for the float
    orbit of x.  Raises ValueError unless delta lies in (0, 1)."""
    _require_unit("delta", delta)
    return _tracing_violations(seq, x, f, _ball_filter(f, m, delta, t0, False))


def classical_validate(seq: OrbitSequence, f, delta: float) -> IndexSet:
    """Indices i with d(f(x_i), x_{i+1}) >= delta: the validator under
    CLASSICAL at (1/2, delta).  delta must be finite and positive."""
    _require_finite_positive("delta", delta)
    return validate_f_pseudo_orbit(seq, f, CLASSICAL, 0.5, delta)


def classical_ns_set(seq: OrbitSequence, x: float, f, eps: float) -> IndexSet:
    """Indices i with d(f^i(x), x_i) >= eps: ns_set under CLASSICAL at
    (1/2, eps).  eps must be finite and positive."""
    _require_finite_positive("eps", eps)
    return ns_set(seq, x, f, CLASSICAL, 0.5, eps)


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
    so the family has vanishing prefix density.  The families strictly
    alternate, k(k+1) < (k+1)**2 < (k+1)(k+2), so a_0, b_0, a_1, b_1, ...
    is already sorted.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe too long: {n}, more than {MAX_UNIVERSE}")
    ks = np.arange(math.isqrt(n) + 1, dtype=np.int64)
    merged = np.empty(2 * ks.size, dtype=np.int64)
    merged[0::2] = ks * (ks + 1)
    merged[1::2] = (ks + 1) ** 2
    return merged[:np.searchsorted(merged, n)]


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
    # row i of out holds x_i, f(x_i), ..., f^(k-1)(x_i); a block of rows is
    # filled column by column while its states sit in cache
    out = np.empty((base.size, k))
    for i in range(0, base.size, _BLOCK):
        rows, cur = out[i:i + _BLOCK], base[i:i + _BLOCK]
        for l in range(k):
            rows[:, l] = cur
            if l + 1 < k:
                cur = f.eval_array(cur)
    return OrbitSequence(out.ravel(), provenance="constructed")


def perturbed_orbit(f, x0: float, n: int, noise: float, seed: int = 0) -> OrbitSequence:
    """Orbit of x0 under the IntervalMap f with seeded uniform per-step
    noise, clipped to the domain (see IntervalMap.perturbed_states)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (math.isfinite(noise) and noise >= 0.0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise!r}")
    rng, states, v = np.random.default_rng(seed), np.empty(n + 1), x0
    # a block of kicks continues the stream of scalar draws; n = 0 still
    # checks x0
    for i in range(0, max(n, 1), _BLOCK):
        stop = min(i + _BLOCK, n)
        states[i:stop + 1] = f.perturbed_states(v, rng.uniform(-noise, noise, stop - i).tolist())
        v = states[stop]
    return OrbitSequence(states, provenance="perturbed")


# -- chains over float-safe reach intervals ---------------------------------------


def _chain_radii(x: float, y: float, f, m, delta: float, t0: float, n_max: int) -> Fraction:
    """The radius of the reach balls of chains: delta less the metric's
    float slack, the margin that rounding a real predecessor to a float
    needs, so that a state of R_{k+1} has a float predecessor in R_k under
    delta itself, the radius of the walk-back balls and of the re-check.  x
    and y must lie in the domain of f, and the domain in the space of m.  A
    delta at or below the slack, the floor cli sets for the searches, leaves
    no reach radius and raises ValueError."""
    if not (0.0 < delta < 1.0 and 0.0 < t0 < math.inf and 1 <= n_max <= MAX_STEPS):
        raise ValueError("chains need delta in (0, 1), a finite horizon t0 > 0 and "
                         f"n_max in [1, {MAX_STEPS}], got {delta!r}, {t0!r} and {n_max!r}")
    require_map_in_space(f, m)
    x, y = float(x), float(y)
    # the least state, then the greatest, as require_in_domain names them:
    # numpy's min and max of a pair are NaN when either is, and y on a tie
    for v in (math.nan,) if x != x or y != y else (min(y, x), max(y, x)):
        if not f.contains(v):
            raise ValueError(f"state {v!r} outside domain of {f.name}")
    slack = m.float_slack(f, t0)
    (dn, dd), (sn, sd) = delta.as_integer_ratio(), slack.as_integer_ratio()
    radius = dn * sd - sn * dd  # over dd sd
    if radius <= 0:
        require_resolved("delta", delta, slack,
                         f"the float slack of {m.name} on {f.name} at t0 {t0!r}")
    return Fraction(radius, dd * sd)


def _integer_ball(f, m, radius: Fraction | float, t0: float) -> tuple[int, ...]:
    """The ball of the given radius at horizon t0 about a value V / D,
    D = unit * 2**1074 the denominator of f.integer_table, as (lo_mul,
    lo_add, lo_den, hi_mul, hi_add, hi_den, closed): its ends are
    (V lo_mul + lo_add) / (D lo_den) and (V hi_mul + hi_add) / (D hi_den),
    open, or closed when closed is true.

    With (q, r) = (qn / qd, rn / rd) = m.ball_rule, the open ends V q / D - r
    and V / (q D) + r are (V qn rd - rn qd D) / (D qd rd) and
    (V qd rd + rn qn D) / (D qn rd).  Under singleton balls it is the closed
    ball of radius 0, (1, 0, 1, 1, 0, 1, True)."""
    rule = m.ball_rule(radius, t0)
    if rule is None:
        return 1, 0, 1, 1, 0, 1, True
    (qn, qd), (rn, rd) = (c.as_integer_ratio() for c in rule)
    big_d = f.integer_table.unit << 1074
    return qn * rd, -rn * qd * big_d, qd * rd, qd * rd, rn * qn * big_d, qn * rd, False


def _reach_step(f, m, radius: Fraction, t0: float):
    """The step (a, b) -> (a', b') of _reach_sets on float pairs: [a', b']
    holds the floats of B(f([a, b])) & X, and a' > b' when there are none.
    [a, b] must be a nonempty closed interval of the domain X of f.

    The step is exact in Python integers.  f.integer_image gives the least
    and greatest value of f over [a, b] as integers lo and hi over the
    denominator D of f.integer_table.  The ball's ends about lo and hi
    (_integer_ball) are integers N over D times one denominator a side,
    which _float_inside rounds inward, open or closed as the ball's ends
    are.  An end beyond f.least or f.greatest, the least or greatest float
    of X, is that float instead.  Under singleton balls B(f([a, b])) is
    f([a, b]) itself."""
    least, greatest = f.least, f.greatest
    lo_mul, lo_add, lo_den, hi_mul, hi_add, hi_den, closed = _integer_ball(f, m, radius, t0)
    # a side's end is N / (D den) = N / (unit den 2**1074), and its bound is
    # the least or greatest float of X over that
    unit = f.integer_table.unit
    lo_unit, hi_unit = unit * lo_den, unit * hi_den
    lo_bound, hi_bound = _numerator(least) * lo_unit, _numerator(greatest) * hi_unit
    image = f.integer_image

    def step(a, b):
        lo, hi = image(_numerator(a), _numerator(b))
        n = lo * lo_mul + lo_add
        a = least if n < lo_bound else _float_inside(n, lo_unit, True, closed)
        n = hi * hi_mul + hi_add
        b = greatest if n > hi_bound else _float_inside(n, hi_unit, False, closed)
        return a, b

    return step


def _reach_sets(x: float, f, m, radius: Fraction, t0: float, n_max: int):
    """Yield R_1, ..., R_{n_max} as float pairs (lo, hi), empty when
    lo > hi: R_1 = {x}, and R_{k+1} holds the floats of B(f(R_k)) & X,
    where B is the union of the balls of the given radius at horizon t0
    (_integer_ball) and X the domain of f (see _reach_step).  Under singleton balls
    R_{k+1} is the exact image of the one state of R_k when that image is a
    float of X, and empty otherwise: the only chain is an exact orbit
    through floats."""
    step = _reach_step(f, m, radius, t0)
    reach, prev = (float(x) + 0.0,) * 2, None
    for _ in range(n_max):
        yield reach
        # a stationary set, the empty one too, repeats forever
        if reach != prev and reach[0] <= reach[1]:
            prev = reach
            reach = step(*reach)


def _walk_step(f, m, delta: float, t0: float):
    """The step (a, b, s) -> x of the walk-back from s: x is the float
    midpoint of the floats of the widest piece of [a, b] & f^-1(B(s)), the
    leftmost on ties, or None when no piece holds a float.  B(s) is the ball
    of radius delta at horizon t0 about s, the one the re-check reads;
    [a, b] is a closed interval of floats of the domain of f.

    The step is exact in Python integers.  s is S unit / D with
    S = s * 2**1074, so by _integer_ball the ball's ends are L / (D ld) and
    H / (D hd) with L = S unit lo_mul + lo_add and H = S unit hi_mul +
    hi_add.  On a piece f(v) = (slope V + c) / D of f.integer_table,
    f(v) > L / (D ld) iff slope ld V > L - c ld, and likewise at H, so each
    end of the preimage is one quotient over slope ld or slope hd, swapped
    on a decreasing piece.  An end that [lo, hi] already meets, or that no
    float of it meets, is decided by comparing products, before any
    division, so that a bound beyond every float is never divided out.  The
    rest rounds through _float_inside, within the piece's floats
    (f.piece_floats)."""
    lo_mul, lo_add, ld, hi_mul, hi_add, hd, closed = _integer_ball(f, m, delta, t0)
    unit, knots, slopes, intercepts, _ = f.integer_table
    pieces = tuple(zip(slopes, intercepts, f.piece_floats))
    last = len(pieces)
    lo_mul, hi_mul = lo_mul * unit, hi_mul * unit
    gap = 0 if closed else 1  # an end holds v when its integer margin is >= gap

    def step(a, b, s):
        big_s = _numerator(s)
        lu, hu = big_s * lo_mul + lo_add, big_s * hi_mul + hi_add
        a_num, b_num = _numerator(a), _numerator(b)
        best, width = None, -1
        for k in range(bisect_left(knots, a_num * unit, 1, last) - 1,
                       bisect_right(knots, b_num * unit, 1, last)):
            slope, c, (lo, hi) = pieces[k]
            lo, hi = max(a, lo), min(b, hi)
            if lo > hi:
                continue
            lo_num, hi_num = _numerator(lo), _numerator(hi)
            if slope == 0:
                if c * ld - lu < gap or hu - c * hd < gap:
                    continue
            else:
                # v's least and greatest bounds as (n, d): n / d over 2**1074
                if slope > 0:
                    (n, d), (n2, d2) = (lu - c * ld, slope * ld), (hu - c * hd, slope * hd)
                else:
                    (n, d), (n2, d2) = (c * hd - hu, -slope * hd), (c * ld - lu, -slope * ld)
                if lo_num * d - n < gap:
                    if hi_num * d - n < gap:
                        continue
                    lo = _float_inside(n, d, True, closed)
                    lo_num = _numerator(lo)
                if n2 - hi_num * d2 < gap:
                    if n2 - lo_num * d2 < gap:
                        continue
                    hi_num = _numerator(_float_inside(n2, d2, False, closed))
            if hi_num - lo_num > width:
                best, width = lo_num + hi_num, hi_num - lo_num
        # the midpoint, which Python rounds correctly
        return None if best is None else best / (1 << 1075)

    return step


def _walk_back(path: list, y: float, f, m, delta: float, t0: float) -> OrbitSequence:
    """The chain through the reach sets of path, then y, where y lies in the
    set after path's last: walked back from y by _walk_step (a one-point
    set gives its one state), then re-verified with validate_f_pseudo_orbit.
    A chain that fails raises VerificationError."""
    step = _walk_step(f, m, delta, t0) if path else None
    states = [float(y)]
    for a, b in reversed(path):
        v = a if a == b else step(a, b, states[-1])
        if v is None:
            raise VerificationError(f"chain state {states[-1]!r} has no float predecessor")
        states.append(v)
    chain = OrbitSequence(np.array(states[::-1]), provenance="constructed")
    if len(chain) > 1:
        bad = validate_f_pseudo_orbit(chain, f, m, delta, t0)
        if not bad.is_empty:
            raise VerificationError(f"chain re-verification failed at index {bad.indices[0]}")
    return chain


def chain_search(x: float, y: float, f, m, delta: float, t0: float,
                 resolution: float = 1e-3, n_max: int = 64) -> OrbitSequence | None:
    """Shortest chain x = x_1, ..., x_n = y of floats with
    M(f(x_k), x_{k+1}, t0) > 1 - delta and n <= n_max (the least n with y in
    R_n, see _reach_sets and _chain_radii), or None when no R_n holds y.  The
    R_n are inner sets, on balls shrunk by the float slack, so None means
    that no chain is certified, not that none exists.

    Walked back from y (_walk_step), x_k is the float midpoint of the floats
    of the widest piece of R_k & f^-1(B(x_{k+1})), the leftmost on ties, or
    the one state of a one-point R_k.  A chain that validate_f_pseudo_orbit
    rejects raises VerificationError.  ``resolution`` is unused: perfbench/
    passes grids there positionally, and its chain-node hook reads it.
    """
    radius = _chain_radii(x, y, f, m, delta, t0, n_max)
    path = []
    for reach in _reach_sets(x, f, m, radius, t0, n_max):
        if reach[0] <= y <= reach[1]:
            return _walk_back(path, y, f, m, delta, t0)
        path.append(reach)
    return None


def _lengths(x: float, y: float, f, m, radius: Fraction, t0: float, n_max: int):
    """One pass over R_1, ..., R_{n_max}: the sets before the first that
    holds y (all of them when none does), and the MixingReport of the
    lengths n with y in R_n."""
    path, present = [], []
    for n, reach in enumerate(_reach_sets(x, f, m, radius, t0, n_max), 1):
        if reach[0] <= y <= reach[1]:
            present.append(n)
        elif not present:
            path.append(reach)
    return path, MixingReport(tuple(present), n_max, _cofinite_onset(set(present), n_max))


def chain_mixing_check(x: float, y: float, f, m, delta: float, t0: float,
                       resolution: float = 1e-3, n_max: int = 64) -> MixingReport:
    """Which chain lengths n <= n_max from x to y chain_search certifies
    (those with y in R_n), and the least onset after which every length
    occurs.  ``resolution`` is unused, as in chain_search.
    """
    radius = _chain_radii(x, y, f, m, delta, t0, n_max)
    return _lengths(x, y, f, m, radius, t0, n_max)[1]


def chain_with_lengths(x: float, y: float, f, m, delta: float, t0: float,
                       n_max: int = 64) -> tuple[OrbitSequence | None, MixingReport]:
    """chain_search and chain_mixing_check of the same arguments from one
    pass over the reach sets: what ``chain --lengths`` reports."""
    radius = _chain_radii(x, y, f, m, delta, t0, n_max)
    path, report = _lengths(x, y, f, m, radius, t0, n_max)
    chain = _walk_back(path, y, f, m, delta, t0) if report.present else None
    return chain, report
