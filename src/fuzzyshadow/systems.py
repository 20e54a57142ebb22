"""Piecewise-linear interval self-maps with exact rational coefficients.

Coefficients and breakpoints are fractions, so continuity and the self-map
property are checked exactly at construction; evaluation runs in floats, on
the states between the domain's least and greatest float (Interval.floats),
and images of intervals are exact.

A float orbit stops stepping at a float fixed point: once a step of
IntervalMap.states gives back the bits of its input (sign included, since
-0.0 == 0.0 but tent:2 sends -0.0 to 0.0), the rest of the orbit is that
state.  The paper's maps settle within 54 steps (tent:2, to 0.0) and 125
steps (example43, to 1.0 or 0.4999999999999999) from 200 seeded starts, so
their orbits cost O(settling) Python steps at any length; orbits that never
settle (tent:sqrt2, tent:1.6) pay about 8 % more per step.  eval_array
picks pieces by counting the breaks below each point, one array comparison
per break.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .fuzzy_metric import Interval, interval_grid
from .orbits import OrbitSequence


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


class IntegerTable(NamedTuple):
    """A map's pieces as integers over one denominator D = unit * 2**1074,
    a multiple of each slope's denominator times 2**1074 and of the
    denominators of the intercepts, the knots and the values at the knots.
    Every float v is an integer V over 2**1074, so on piece k
    f(v) = (slopes[k] * V + intercepts[k]) / D exactly, for any rational
    map."""

    unit: int
    knots: tuple[int, ...]
    slopes: tuple[int, ...]
    intercepts: tuple[int, ...]
    knot_values: tuple[int, ...]


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
        # exact f at each knot and the flat pieces, which image reads
        self._knot_values = (self.pieces[0].value(self.knots[0]),
                             *(p.value(p.hi) for p in self.pieces))
        self._flat = tuple(p.slope == 0 for p in self.pieces)
        self._validate_pieces()
        self._validate_self_map()
        # ends to nearest (plots, the clamp floor); least/greatest float decide membership
        self.domain_lo, self.domain_hi = float(self.knots[0]), float(self.knots[-1])
        self.least, self.greatest = self.domain.floats()
        # float mirrors for evaluation: numpy arrays for eval_array, Python
        # lists for the scalar eval, which pays no numpy per-call overhead
        self._breaks = np.array([float(p.hi) for p in self.pieces[:-1]])
        self._slopes = np.array([float(p.slope) for p in self.pieces])
        self._icepts = np.array([float(p.intercept) for p in self.pieces])
        self._break_list = self._breaks.tolist()
        # for piece_index: numpy compares an array with a 0-d array faster than
        # with a float; a one-piece map gets a break at inf, which no x exceeds
        self._break_arrays = tuple(map(np.array, self._break_list)) or (np.array(math.inf),)
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

    # -- exact constants the metrics' closed forms read, kept once computed -----

    @cached_property
    def lipschitz(self) -> Fraction:
        """L = max |slope|: |f(x) - f(y)| <= L |x - y|."""
        return max(abs(p.slope) for p in self.pieces)

    @cached_property
    def eval_scale(self) -> Fraction:
        """max |slope x| + |intercept| + |x| over the piece ends: the scale of
        eval's absolute float error."""
        return max(abs(p.slope * x) + abs(p.intercept) + abs(x) for p, x, _ in self._ends())

    @cached_property
    def log_lipschitz(self) -> Fraction:
        """K = max |slope| x / f(x) over the piece ends with f(x) > 0."""
        return max(abs(p.slope) * x / y for p, x, y in self._ends() if y > 0)

    @cached_property
    def relative_eval_scale(self) -> Fraction:
        """max (|slope| x + |intercept|) / f(x) over the piece ends with
        f(x) > 0: the scale of eval's relative float error."""
        return max((abs(p.slope) * x + abs(p.intercept)) / y for p, x, y in self._ends() if y > 0)

    def _ends(self):
        """Each piece with each of its ends x and f(x) there."""
        return ((p, x, p.value(x)) for p in self.pieces for x in (p.lo, p.hi))

    @cached_property
    def integer_table(self) -> IntegerTable:
        """The pieces, knots and knot values as integers over one
        denominator, which integer_image reads; built on first use."""
        scale = math.lcm(*(p.slope.denominator << 1074 for p in self.pieces),
                         *(p.intercept.denominator for p in self.pieces),
                         *(v.denominator for v in (*self.knots, *self._knot_values)))
        unit = scale >> 1074

        def over(values, d):
            return tuple(v.numerator * (d // v.denominator) for v in values)

        # a slope is applied to V, an integer over 2**1074, so it is kept over unit
        return IntegerTable(unit, over(self.knots, scale),
                            over((p.slope for p in self.pieces), unit),
                            over((p.intercept for p in self.pieces), scale),
                            over(self._knot_values, scale))

    @cached_property
    def piece_floats(self) -> tuple[tuple[float, float], ...]:
        """Interval.floats of each piece's closure, the first piece's above an
        open lower end of the domain, so that piece_floats[0][0] is least and
        piece_floats[-1][1] greatest; a piece that holds no float has least >
        greatest.  Built on first use."""
        return tuple(Interval(p.lo, p.hi, k > 0 or not self.lo_open).floats()
                     for k, p in enumerate(self.pieces))

    # -- domain ----------------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.least <= x <= self.greatest

    def grid(self, resolution: float) -> np.ndarray:
        return interval_grid(self.least, self.greatest, self.lo_open, resolution)

    # -- evaluation --------------------------------------------------------------

    def eval(self, x: float) -> float:
        # bisect_left picks the piece piece_index picks in eval_array, and
        # Python floats round the product and the sum as the float64 arrays
        # do, so both paths give the same bits
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
        belongs to the piece on its left.

        The index is the number of breaks below x, which for every x but
        NaN is searchsorted(breaks, x, side="left").  A map has a handful of
        breaks, so one array comparison per break beats a binary search per
        point, except on a few hundred points or fewer, where each extra
        break costs about a microsecond.
        """
        xs = np.asarray(xs, dtype=float)
        first, *rest = self._break_arrays
        idx = (xs > first).astype(np.intp)
        for b in rest:
            idx += xs > b
        return idx

    def value(self, x: Fraction) -> Fraction:
        """Exact f(x) at a rational x of the domain; at an open end, the limit.
        Raises ValueError outside the closure of the domain."""
        # at a breakpoint both pieces give the same value
        return self.pieces[self._piece_index(x, bisect_left)].value(x)

    def _piece_index(self, x: Fraction, side) -> int:
        """Index of the piece whose closure holds x: at a breakpoint, the
        piece on its right for side=bisect_right, on its left for bisect_left.
        Raises ValueError when x lies outside the closure of the domain."""
        if not self.knots[0] <= x <= self.knots[-1]:
            raise ValueError(f"{x} outside domain of {self.name}")
        # searching knots[1:-1] keeps the index a piece's at both domain ends
        return side(self.knots, x, 1, len(self.pieces)) - 1

    def image(self, iv: Interval) -> Interval:
        """Exact image of a nonempty interval of the domain's closure.

        f is continuous and affine between breakpoints, so its extremes over
        iv are values at the ends and at the interior breakpoints, whose
        values are kept in a table.  A value seen only at an open end is
        attained all the same when the piece next to that end is flat.  No
        other point adds anything: inside a piece that is not flat, f lies
        strictly between its values at the piece's ends.
        """
        i, j = self._piece_index(iv.lo, bisect_right), self._piece_index(iv.hi, bisect_left)
        a, b = self.pieces[i].value(iv.lo), self.pieces[j].value(iv.hi)
        a_seen, b_seen = iv.lo_closed or self._flat[i], iv.hi_closed or self._flat[j]
        # the breakpoints strictly inside iv are knots i + 1, ..., j
        inner = self._knot_values[i + 1:j + 1]
        lo, hi = min(a, b, *inner), max(a, b, *inner)
        return Interval(lo, hi, (a_seen and a == lo) or (b_seen and b == lo) or lo in inner,
                        (a_seen and a == hi) or (b_seen and b == hi) or hi in inner)

    def integer_image(self, a: int, b: int) -> tuple[int, int]:
        """Least and greatest value of f over the closed interval of the
        domain from a * 2**-1074 to b * 2**-1074, times the denominator D of
        integer_table: image's rule in integers.  The pieces that hold the
        ends are found by bisecting the knots, ties going right for a and
        left for b, and the values between are the inner knots'."""
        unit, knots, slopes, intercepts, values = self.integer_table
        last = len(self.pieces)
        i = bisect_right(knots, a * unit, 1, last) - 1
        j = bisect_left(knots, b * unit, 1, last) - 1
        fa, fb = slopes[i] * a + intercepts[i], slopes[j] * b + intercepts[j]
        inner = values[i + 1:j + 1]
        return min(fa, fb, *inner), max(fa, fb, *inner)

    def states(self, x: float, n: int) -> list[float]:
        """The first n states x, f(x), ..., f^(n-1)(x) of the float orbit of
        x, each the bits eval gives.  x and every state the map is applied to
        must lie in the domain, and the first one outside raises eval's
        ValueError; the last state is not checked.

        Once a step gives back the bits of its input, that state is a float
        fixed point, and the rest of the orbit is filled with it without
        stepping.  The test compares signs as well as values, since
        ``-0.0 == 0.0`` while tent:2 sends -0.0 to 0.0.  Float orbits of the
        paper's maps settle fast: from 200 seeded starts, tent:2 reaches 0.0
        within 54 steps and example43 reaches 1.0 or 0.4999999999999999
        within 125.  An orbit that never settles, as on tent:sqrt2 or
        tent:1.6, pays about 8 % more per step for the test.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        v = float(x)
        least, hi = self.least, self.greatest
        if not least <= v <= hi:
            raise ValueError(f"{v!r} outside domain of {self.name}")
        out = [v] if n else []
        append, bisect, breaks, coeffs = out.append, bisect_left, self._break_list, self._coeffs
        copysign = math.copysign
        for _ in range(n - 1):
            if not least <= v <= hi:
                raise ValueError(f"{v!r} outside domain of {self.name}")
            slope, intercept = coeffs[bisect(breaks, v)]
            w = slope * v + intercept
            if w == v and copysign(1.0, w) == copysign(1.0, v):
                # v lies in the domain, so every later step is this one
                out.extend(repeat(v, n - len(out)))
                break
            v = w
            append(v)
        return out

    def perturbed_states(self, x: float, kicks) -> list[float]:
        """x, then per kick the state f(previous) + kick clamped to the domain
        (above an open lower end, to 1e-12 of its floats' span above the
        least float); f steps and the domain is checked as in states."""
        v = float(x)
        least, hi = self.least, self.greatest
        if not least <= v <= hi:
            raise ValueError(f"{v!r} outside domain of {self.name}")
        floor = least + (hi - least) * 1e-12 if self.lo_open else least
        out = [v]
        append, bisect, breaks, coeffs = out.append, bisect_left, self._break_list, self._coeffs
        for kick in kicks:
            if not least <= v <= hi:
                raise ValueError(f"{v!r} outside domain of {self.name}")
            slope, intercept = coeffs[bisect(breaks, v)]
            # min(hi, max(floor, v)) to the bit, without two builtin calls a
            # step: max keeps its first argument unless the second is
            # greater, min unless the second is less
            v = slope * v + intercept + kick
            if not v > floor:
                v = floor
            if not v < hi:
                v = hi
            append(v)
        return out

    def iterate(self, x: float, n: int) -> float:
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        return self.states(x, n + 1)[-1]

    def orbit(self, x: float, n: int) -> OrbitSequence:
        """States x, f(x), ..., f^n(x) as a true-orbit sequence."""
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        return OrbitSequence(self.states(x, n + 1), provenance="true-orbit")

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


def compose(g: IntervalMap, pieces) -> list[Piece]:
    """The pieces of g o h, for the pieces of a map h into g's domain: h's,
    cut where h crosses a knot of g, with collinear neighbours merged."""
    out = []
    for p in pieces:
        a, b = sorted((p.value(p.lo), p.value(p.hi)))
        cuts = sorted((y - p.intercept) / p.slope for y in g.knots if a < y < b)
        for lo, hi in zip((p.lo, *cuts), (*cuts, p.hi)):
            q = g.pieces[g._piece_index(p.value((lo + hi) / 2), bisect_left)]
            slope, intercept = q.slope * p.slope, q.slope * p.intercept + q.intercept
            if out and (out[-1].slope, out[-1].intercept) == (slope, intercept):
                lo = out.pop().lo
            out.append(Piece(lo, hi, slope, intercept))
    return out


class IteratedMap:
    """k-fold composition f^k of a map f.  Its floats (eval, eval_array,
    states, iterate) and their error scales are f's, strided k times; the
    exact tables chains and certificates read (_EXACT) are the composition's
    (_power), built on first use, whose own floats would round otherwise: so
    no piece_index or perturbed_states."""

    MAX_PIECES = 2**12  # most pieces the composition may have: tent:2^k has 2**k
    _EXACT = ("integer_table", "integer_image", "piece_floats", "lipschitz", "log_lipschitz")

    def __init__(self, base: IntervalMap, k: int):
        if k < 1:
            raise ValueError("power must be at least 1")
        self.base = base
        self.k = k
        self.lo_open = base.lo_open
        self.domain_lo, self.domain_hi = base.domain_lo, base.domain_hi
        self.least, self.greatest = base.least, base.greatest
        self.name = f"{base.name}^{k}"

    def __getattr__(self, name: str):
        if name in IteratedMap._EXACT:  # only names the instance and class lack come here
            return getattr(self._power, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @cached_property
    def _power(self) -> IntervalMap:
        pieces = self.base.pieces
        for i in range(2, self.k + 1):
            if len(pieces := compose(self.base, pieces)) > self.MAX_PIECES:
                raise ValueError(f"{self.base.name}^{i} has {len(pieces)} pieces, more than "
                                 f"the {self.MAX_PIECES} a power map may have")
        return IntervalMap(pieces, self.lo_open, self.name)

    @cached_property
    def eval_scale(self) -> Fraction:
        """f's eval_scale times 1 + L + ... + L^(k-1), L = f.lipschitz."""
        # a stride, or rounding its argument, errs by under E = 2**-51 f.eval_scale (see
        # float_slack); striding a float x_j for the exact y_j adds under L |x_j - y_j|, so k
        # strides err by under E (1 + L + ... + L^(k-1)), and rounding the argument by L^(k-1) E
        return self.base.eval_scale * sum(self.base.lipschitz**j for j in range(self.k))

    @cached_property
    def relative_eval_scale(self) -> Fraction:
        """(c + 1)(1 + K + ... + K^(k-1)) - 1, c f's relative_eval_scale, K its log_lipschitz."""
        # likewise for relative errors e = ulp(1) (c + 1) (see float_slack), log f being K-Lipschitz
        # in log x, to first order; the ulp(1)/2 by which e exceeds a stride's error covers the rest
        c, big_k = self.base.relative_eval_scale, self.base.log_lipschitz
        return (c + 1) * sum(big_k**j for j in range(self.k)) - 1

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

    def states(self, x: float, n: int) -> list[float]:
        """x, f^k(x), ..., f^((n-1)k)(x): every k-th state of the base orbit."""
        if n < 1:  # the base checks n and x
            return self.base.states(x, n)
        return self.base.states(x, (n - 1) * self.k + 1)[::self.k]


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
