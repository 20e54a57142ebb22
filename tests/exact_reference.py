"""Exact helpers shared by the tests: the piecewise-linear map through given
points, plain Fraction references for the interval algebra that the
chains run in integers (a point, the meet, membership, the union of balls
about an interval, and the preimage of an interval from every piece), and
the nearness predicate itself in Fractions."""

from fractions import Fraction

from fuzzyshadow.fuzzy_metric import Interval
from fuzzyshadow.systems import IntervalMap, Piece


def pl_map(knots, values, lo_open=False, name="map"):
    """The continuous map through the points (knots[i], values[i])."""
    knots, values = [Fraction(k) for k in knots], [Fraction(v) for v in values]
    pieces = []
    for x0, x1, y0, y1 in zip(knots, knots[1:], values, values[1:]):
        slope = (y1 - y0) / (x1 - x0)
        pieces.append(Piece(x0, x1, slope, y0 - slope * x0))
    return IntervalMap(pieces, lo_open=lo_open, name=name)


def point(x) -> Interval:
    v = Fraction(x)
    return Interval(v, v)


def reference_and(a, b):
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return Interval(lo, hi, all(i.lo_closed for i in (a, b) if i.lo == lo),
                    all(i.hi_closed for i in (a, b) if i.hi == hi))


def reference_contains(a, x):
    return not reference_and(a, point(x)).is_empty


def ball_union(m, iv, radius, t):
    """The union of the open balls of the given radius at horizon t about the
    points of the nonempty interval iv, by m.ball_rule; iv itself under
    singleton balls."""
    rule = m.ball_rule(radius, t)
    if rule is None:
        return iv
    q, r = rule
    return Interval(iv.lo * q - r, iv.hi / q + r, False, False)


def reference_preimage(f, target, within):
    """The preimage from every piece in turn, the empty parts dropped."""
    parts = []
    for p in f.pieces:
        part = within & Interval(p.lo, p.hi)
        if p.slope == 0:
            if not reference_contains(target, p.intercept):
                continue
        else:
            a = (target.lo - p.intercept) / p.slope
            b = (target.hi - p.intercept) / p.slope
            part &= (Interval(a, b, target.lo_closed, target.hi_closed) if p.slope > 0
                     else Interval(b, a, target.hi_closed, target.lo_closed))
        if not part.is_empty:
            parts.append(part)
    return parts


def exactly_near(m, u, z, radius, t) -> bool:
    """M(u, z, t) > 1 - radius in exact arithmetic on the rational inputs."""
    u, z, radius, t = map(Fraction, (u, z, radius, t))
    if m.name == "standard":
        value = t / (t + abs(u - z))
    elif u == z:
        value = Fraction(1)
    else:
        value = min(u, z) / max(u, z) * (min(t, 1) if m.name == "ratio-phi" else 1)
    return value > 1 - radius
