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
        # domain ends and interior breakpoints: f is affine between them
        self.knots = (self.pieces[0].lo, *(p.hi for p in self.pieces))
        self.domain = Interval(self.knots[0], self.knots[-1], not self.lo_open)
        self._validate_pieces()
        self._validate_self_map()
        self.domain_lo = float(self.knots[0])
        self.domain_hi = float(self.knots[-1])
        # float mirrors for evaluation: numpy arrays for eval_array, Python
        # lists for the scalar eval, which pays no numpy per-call overhead
        self._breaks = np.array([float(p.hi) for p in self.pieces[:-1]])
        self._slopes = np.array([float(p.slope) for p in self.pieces])
        self._icepts = np.array([float(p.intercept) for p in self.pieces])
        self._break_list = self._breaks.tolist()
        self._coeffs = tuple(zip(self._slopes.tolist(), self._icepts.tolist()))

    # -- exact validation ----------------------------------------------------

    def _validate_pieces(self):
        for p in self.pieces:
            if not p.lo < p.hi:
                raise ValueError("piece endpoints must satisfy lo < hi")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must tile the domain without gaps")
            if left.value(left.hi) != right.value(right.lo):
                raise ValueError(f"discontinuity at breakpoint {left.hi}")

    def _validate_self_map(self):
        image = self.image(self.domain)
        if image & self.domain != image:
            raise ValueError(f"image {image} of {self.name} leaves its domain {self.domain}")

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
        idx = self.piece_index(xs)
        return self._slopes[idx] * xs + self._icepts[idx]

    def piece_index(self, xs) -> np.ndarray:
        """Index of the piece eval_array applies at each x; a breakpoint
        belongs to the piece on its left."""
        return np.searchsorted(self._breaks, xs, side="left")

    def value(self, x: Fraction) -> Fraction:
        """Exact f(x) at a rational x of the domain; at an open end, the limit."""
        # at a breakpoint both pieces give the same value
        return next(p for p in self.pieces if x <= p.hi).value(x)

    def image(self, iv: Interval) -> Interval:
        """Exact image of a nonempty interval of the domain.

        f is continuous and affine between breakpoints, so its extremes over
        iv are values at the ends and at the interior breakpoints.  A value
        seen only at an open end is attained all the same when a flat piece
        repeats it, which the value at a point inside each piece detects.
        """
        cuts = [iv.lo, *(b for b in self.knots if iv.lo < b < iv.hi), iv.hi]
        seen = [(self.value(iv.lo), iv.lo_closed), (self.value(iv.hi), iv.hi_closed)]
        seen += [(self.value(b), True) for b in cuts[1:-1]]
        seen += [(self.value((a + b) / 2), True) for a, b in zip(cuts, cuts[1:])]
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
        found = set()
        for p in self.pieces:
            if p.slope == 1:  # a piece on the diagonal reports its ends
                found |= {p.lo, p.hi} if p.intercept == 0 else set()
            elif p.lo <= (x := p.intercept / (1 - p.slope)) <= p.hi:
                found.add(x)
        return tuple(float(v) for v in sorted(found))

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
    g(x) > x exactly where f(x) > x.  The defining properties are verified
    exactly at the breakpoints and a failure raises ConstructionError.
    """
    # compare before converting: Fraction(inf) overflows, Fraction(nan) fails
    if not 0 < alpha < MAX_PERTURBATION:
        raise ValueError("perturbation size must lie in (0, 1/128)")
    a = Fraction(alpha)
    base = example43_map()
    c = 4 * a
    pieces = tuple(
        Piece(p.lo, p.hi, (1 - c) * p.slope + c, (1 - c) * p.intercept)
        for p in base.pieces
    )
    g = IntervalMap(pieces, lo_open=True, name=f"g:{alpha:g}")
    _verify_perturbation(base, g, a)
    return g


def sup_distance(f: IntervalMap, g: IntervalMap) -> Fraction:
    """Exact sup of |f - g| over a shared domain: f - g is affine between the
    knots of either map, so it is largest at one of them."""
    if (f.knots[0], f.knots[-1], f.lo_open) != (g.knots[0], g.knots[-1], g.lo_open):
        raise ValueError(f"{f.name} and {g.name} do not share a domain")
    return max(abs(f.value(x) - g.value(x)) for x in {*f.knots, *g.knots})


def _verify_perturbation(f: IntervalMap, g: IntervalMap, alpha: Fraction) -> None:
    gap = sup_distance(f, g)
    if not gap < alpha:
        raise ConstructionError(f"sup-distance {gap} not below {alpha}")
    if g.eval(0.5) != 0.5 or g.eval(1.0) != 1.0:
        raise ConstructionError("perturbation must fix 1/2 and 1")
    if any(p.slope <= 0 for p in g.pieces):
        raise ConstructionError("perturbation must stay strictly increasing")
    # g - id is affine between knots, so it is positive off 1/2 and 1 when it
    # is >= 0 at every knot and piece middle and 0 there only at 1/2 or 1
    middles = [(a + b) / 2 for a, b in zip(g.knots, g.knots[1:])]
    for x in (*g.knots, *middles):
        if g.value(x) < x or (g.value(x) == x and x not in (Fraction(1, 2), 1)):
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
