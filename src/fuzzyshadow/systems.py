"""Piecewise-linear interval self-maps with exact rational coefficients.

Coefficients and breakpoints are stored as fractions, so continuity at
interior breakpoints and the self-map property are checked exactly at
construction time; evaluation then runs in double precision, and images and
preimages of intervals are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fuzzy_metric import Interval, interval_grid
from .orbits import OrbitSequence, orbit_states


class ConstructionError(RuntimeError):
    """A concrete construction failed its own verification."""


@dataclass(frozen=True)
class Piece:
    """One affine piece slope*x + intercept on [lo, hi]."""

    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def value(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


class IntervalMap:
    """Continuous piecewise-linear self-map of an interval."""

    def __init__(self, pieces, lo_open: bool = False, name: str = "map"):
        self.pieces = tuple(pieces)
        self.lo_open = bool(lo_open)
        self.name = name
        if not self.pieces:
            raise ValueError("need at least one piece")
        self._validate_cover()
        self._validate_continuity()
        self._validate_self_map()
        self.domain_lo = float(self.pieces[0].lo)
        self.domain_hi = float(self.pieces[-1].hi)
        # float mirrors for evaluation: numpy arrays for eval_array, Python
        # lists for the scalar eval, which pays no numpy per-call overhead
        self._breaks = np.array([float(p.hi) for p in self.pieces[:-1]])
        self._slopes = np.array([float(p.slope) for p in self.pieces])
        self._icepts = np.array([float(p.intercept) for p in self.pieces])
        self._break_list = self._breaks.tolist()
        self._coeffs = tuple(zip(self._slopes.tolist(), self._icepts.tolist()))

    # -- exact validation ----------------------------------------------------

    def _validate_cover(self):
        for p in self.pieces:
            if not p.lo < p.hi:
                raise ValueError("piece endpoints must satisfy lo < hi")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile the domain without gaps")

    def _validate_continuity(self):
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.value(left.hi) != right.value(right.lo):
                raise ValueError(f"discontinuity at breakpoint {left.hi}")

    def _validate_self_map(self):
        lo, hi = self.pieces[0].lo, self.pieces[-1].hi
        for p in self.pieces:
            for end in (p.lo, p.hi):
                # the open lower endpoint is a limit, never attained
                attained = not (self.lo_open and end == lo)
                v = p.value(end)
                if v > hi or v < lo:
                    raise ValueError(f"image leaves domain: f({end}) = {v}")
                if v == lo and self.lo_open and attained:
                    raise ValueError(f"image touches excluded endpoint: f({end}) = {v}")

    # -- domain ----------------------------------------------------------------

    def contains(self, x: float) -> bool:
        if self.lo_open:
            return self.domain_lo < x <= self.domain_hi
        return self.domain_lo <= x <= self.domain_hi

    def grid(self, resolution: float) -> np.ndarray:
        return interval_grid(self.domain_lo, self.domain_hi, self.lo_open, resolution)

    # -- evaluation --------------------------------------------------------------

    def eval(self, x: float) -> float:
        # bisect_left picks the piece searchsorted(side="left") picks in
        # eval_array, and Python floats round the product and the sum as the
        # float64 arrays do, so both paths give the same bits
        x = float(x)
        if not self.contains(x):
            raise ValueError(f"{x!r} outside domain of {self.name}")
        slope, intercept = self._coeffs[bisect_left(self._break_list, x)]
        return slope * x + intercept

    def eval_array(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self._breaks, xs, side="left")
        return self._slopes[idx] * xs + self._icepts[idx]

    def _exact(self, x: Fraction) -> Fraction:
        # at a breakpoint both pieces give the same value
        return next(p for p in self.pieces if x <= p.hi).value(x)

    def image(self, iv: Interval) -> Interval:
        """Exact image of a nonempty interval of the domain.

        f is continuous and affine between breakpoints, so its extremes over
        iv are values at the ends and at the interior breakpoints.  A value
        seen only at an open end is attained all the same when a flat piece
        repeats it, which the value at a point inside each piece detects.
        """
        cuts = [iv.lo, *(p.hi for p in self.pieces if iv.lo < p.hi < iv.hi), iv.hi]
        seen = [(self._exact(iv.lo), iv.lo_closed), (self._exact(iv.hi), iv.hi_closed)]
        seen += [(self._exact(b), True) for b in cuts[1:-1]]
        seen += [(self._exact((a + b) / 2), True) for a, b in zip(cuts, cuts[1:])]
        lo, hi = min(v for v, _ in seen), max(v for v, _ in seen)
        return Interval(lo, hi, any(c for v, c in seen if v == lo),
                        any(c for v, c in seen if v == hi))

    def preimage(self, target: Interval, within: Interval) -> list[Interval]:
        """The points of within that f maps into target, as one nonempty
        interval per piece, in domain order."""
        parts = []
        for p in self.pieces:
            part = within & Interval(p.lo, p.hi)
            if p.slope == 0:
                if p.intercept not in target:
                    continue
            else:
                a = (target.lo - p.intercept) / p.slope
                b = (target.hi - p.intercept) / p.slope
                part &= (Interval(a, b, target.lo_closed, target.hi_closed) if p.slope > 0
                         else Interval(b, a, target.hi_closed, target.lo_closed))
            if not part.is_empty:
                parts.append(part)
        return parts

    def iterate(self, x: float, n: int) -> float:
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        v = float(x)
        if not self.contains(v):
            raise ValueError(f"{v!r} outside domain of {self.name}")
        for _ in range(n):
            v = self.eval(v)
        return v

    def orbit(self, x: float, n: int) -> OrbitSequence:
        """States x, f(x), ..., f^n(x) as a true-orbit sequence."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        return OrbitSequence(orbit_states(self, x, n + 1), provenance="true-orbit")

    def fixed_points(self) -> tuple[float, ...]:
        """Solve slope*x + intercept = x exactly on each piece."""
        found = []
        for p in self.pieces:
            if p.slope == 1:
                if p.intercept == 0:  # whole piece fixed; report endpoints
                    found.extend([p.lo, p.hi])
                continue
            x = p.intercept / (1 - p.slope)
            if p.lo <= x <= p.hi:
                found.append(x)
        uniq = sorted(set(found))
        return tuple(float(v) for v in uniq)

    def __repr__(self) -> str:
        return f"IntervalMap({self.name!r}, pieces={len(self.pieces)})"


# -- the concrete maps ------------------------------------------------------------


def tent(beta: float) -> IntervalMap:
    """Tent map with peak slope beta: beta*x up to 1/2, beta*(1-x) above."""
    if not (math.sqrt(2) <= beta <= 2.0):
        raise ValueError("tent slope must lie in [sqrt(2), 2]")
    b = Fraction(beta)
    half = Fraction(1, 2)
    pieces = (
        Piece(Fraction(0), half, b, Fraction(0)),
        Piece(half, Fraction(1), -b, b),
    )
    return IntervalMap(pieces, lo_open=False, name=f"tent:{beta:g}")


def example43_map() -> IntervalMap:
    """Three-piece increasing map on (0, 1] with fixed points 1/2 and 1.

    Below 1/2 the map pushes states up toward 1/2; just above 1/2 it expands
    away from it; above 3/4 it contracts toward 1.  Classical shadowing fails
    across the 1/2 crossing, which is what makes this map a useful probe.
    """
    pieces = (
        Piece(Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1, 8)),
        Piece(Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(-1, 4)),
        Piece(Fraction(3, 4), Fraction(1), Fraction(1, 2), Fraction(1, 2)),
    )
    return IntervalMap(pieces, lo_open=True, name="example43")


MAX_PERTURBATION = Fraction(1, 128)


def perturbation_g(alpha: float) -> IntervalMap:
    """A monotone perturbation of the three-piece map, sup-distance below alpha.

    Blends the base map toward the diagonal: g = (1 - c) * f + c * id with
    c = 4 * alpha, so the largest shift is c * max|f - id| = alpha / 2.  The
    blend keeps both fixed points, keeps g strictly increasing, and keeps
    g(x) > x exactly where f(x) > x.  The defining properties are re-verified
    numerically and a failure raises ConstructionError.
    """
    a = Fraction(alpha)
    if not 0 < a < MAX_PERTURBATION:
        raise ValueError("perturbation size must lie in (0, 1/128)")
    base = example43_map()
    c = 4 * a
    pieces = tuple(
        Piece(p.lo, p.hi, (1 - c) * p.slope + c, (1 - c) * p.intercept)
        for p in base.pieces
    )
    g = IntervalMap(pieces, lo_open=True, name=f"g:{alpha:g}")
    _verify_perturbation(base, g, float(alpha))
    return g


def _verify_perturbation(f: IntervalMap, g: IntervalMap, alpha: float,
                         resolution: float = 1e-5) -> None:
    xs = g.grid(resolution)
    gap = float(np.max(np.abs(f.eval_array(xs) - g.eval_array(xs))))
    if not gap < alpha:
        raise ConstructionError(f"sup-distance {gap} not below {alpha}")
    if g.eval(0.5) != 0.5 or g.eval(1.0) != 1.0:
        raise ConstructionError("perturbation must fix 1/2 and 1")
    if any(p.slope <= 0 for p in g.pieces):
        raise ConstructionError("perturbation must stay strictly increasing")
    above = g.eval_array(xs) > xs
    interior = (xs != 0.5) & (xs != 1.0)
    if not np.all(above[interior]):
        raise ConstructionError("perturbation must sit above the diagonal off its fixed points")


class IteratedMap:
    """k-fold composition of a map, exposing the same evaluation surface."""

    def __init__(self, base: IntervalMap, k: int):
        if k < 1:
            raise ValueError("power must be at least 1")
        self.base = base
        self.k = k
        self.lo_open = base.lo_open
        self.domain_lo, self.domain_hi = base.domain_lo, base.domain_hi
        self.name = f"{base.name}^{k}"

    def contains(self, x: float) -> bool:
        return self.base.contains(x)

    def grid(self, resolution: float) -> np.ndarray:
        return self.base.grid(resolution)

    def eval(self, x: float) -> float:
        return self.base.iterate(x, self.k)

    def eval_array(self, xs) -> np.ndarray:
        out = np.asarray(xs, dtype=float)
        for _ in range(self.k):
            out = self.base.eval_array(out)
        return out

    def iterate(self, x: float, n: int) -> float:
        return self.base.iterate(x, self.k * n)


def power_map(f: IntervalMap, k: int) -> IteratedMap:
    return IteratedMap(f, k)


def map_from_spec(spec: str) -> IntervalMap:
    """Parse a map selector: "tent:<beta>" | "example43" | "g:<alpha>"."""
    if spec == "example43":
        return example43_map()
    if spec.startswith("tent:"):
        return tent(_parse_param(spec[5:], allow_sqrt2=True))
    if spec.startswith("g:"):
        return perturbation_g(_parse_param(spec[2:]))
    raise ValueError(f"unknown map spec {spec!r}")


def _parse_param(text: str, allow_sqrt2: bool = False) -> float:
    if allow_sqrt2 and text == "sqrt2":
        return math.sqrt(2)
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad numeric parameter {text!r}") from None
